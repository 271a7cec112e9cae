package online

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"alamr/internal/dataset"
	"alamr/internal/engine"
	"alamr/internal/faults"
	"alamr/internal/stats"
)

// faultyCfg is the shared fault cocktail of the determinism and resume
// tests: every injectable class is live.
func faultyCfg(seed int64) faults.LabConfig {
	return faults.LabConfig{
		Seed:       seed,
		RSSLimitMB: 0.35,
		PTransient: 0.15,
		PCorrupt:   0.1,
	}
}

func campaignCfg(seed int64) Config {
	return Config{
		Policy:         engine.RGMA{},
		MaxExperiments: 14,
		MemLimitMB:     0.35,
		Seed:           seed,
		Retry:          faults.RetryPolicy{MaxAttempts: 6},
	}
}

// TestOnlineFaultyCampaignDeterministic pins the reproducibility guarantee:
// with fixed seeds, a campaign run through the fault injector — retries,
// censored observations and all — is bitwise identical across runs.
// (reflect.DeepEqual compares float64 slices exactly; Results never carry
// NaN, so equality here is bitwise equality.)
func TestOnlineFaultyCampaignDeterministic(t *testing.T) {
	run := func() (*Result, error) {
		lab := faults.MustFaultyLab(newFakeLab(), faultyCfg(31))
		return Run(lab, campaignCfg(31))
	}
	a, errA := run()
	b, errB := run()
	if (errA == nil) != (errB == nil) {
		t.Fatalf("error mismatch: %v vs %v", errA, errB)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("fault campaign not reproducible:\n%+v\nvs\n%+v", a, b)
	}
	if !a.Health.Consistent() {
		t.Fatalf("health ledger does not balance: %+v", a.Health)
	}
	if a.Health.Attempts <= a.Health.Successes {
		t.Fatalf("fault cocktail injected nothing: %+v", a.Health)
	}
}

// killLab wraps a lab and fails fatally (with an unclassifiable error) after
// a fixed number of calls — the test's stand-in for kill -9.
type killLab struct {
	inner Lab
	after int
	calls int
}

func (l *killLab) Candidates() []dataset.Combo { return l.inner.Candidates() }

func (l *killLab) Run(c dataset.Combo) (dataset.Job, error) {
	l.calls++
	if l.calls > l.after {
		return dataset.Job{}, errors.New("process killed")
	}
	return l.inner.Run(c)
}

func (l *killLab) LabState() ([]byte, error) {
	if r, ok := l.inner.(faults.Resumable); ok {
		return r.LabState()
	}
	return nil, nil
}

func (l *killLab) RestoreLabState(b []byte) error {
	if r, ok := l.inner.(faults.Resumable); ok {
		return r.RestoreLabState(b)
	}
	return nil
}

// TestOnlineCheckpointKillResume is the crash-recovery contract: a campaign
// killed mid-flight and resumed from its checkpoint produces a Result
// bitwise identical to an uninterrupted run — same selections, same
// censored observations, same health ledger.
func TestOnlineCheckpointKillResume(t *testing.T) {
	const seed = 31
	uninterrupted, err := Run(faults.MustFaultyLab(newFakeLab(), faultyCfg(seed)), campaignCfg(seed))
	if err != nil {
		t.Fatalf("uninterrupted run failed: %v", err)
	}

	for _, killAfter := range []int{1, 5, 11} {
		path := filepath.Join(t.TempDir(), "campaign.ckpt")

		// First process: dies after killAfter lab calls.
		cfg := campaignCfg(seed)
		cfg.CheckpointPath = path
		kl := &killLab{inner: faults.MustFaultyLab(newFakeLab(), faultyCfg(seed)), after: killAfter}
		partial, err := Run(kl, cfg)
		if err == nil {
			t.Fatalf("killAfter=%d: campaign survived the kill", killAfter)
		}
		if partial == nil {
			t.Fatalf("killAfter=%d: no partial result returned", killAfter)
		}
		if partial.Reason != engine.StopFault {
			t.Fatalf("killAfter=%d: reason %s", killAfter, partial.Reason)
		}
		// A kill during the warm-up job (killAfter=1) predates the first
		// checkpoint write; resume then simply starts fresh. Later kills
		// must find a checkpoint on disk.
		if killAfter > 1 {
			if _, err := os.Stat(path); err != nil {
				t.Fatalf("killAfter=%d: no checkpoint on disk: %v", killAfter, err)
			}
		}

		// Second process: fresh lab, fresh campaign, same checkpoint.
		resumed, err := Run(faults.MustFaultyLab(newFakeLab(), faultyCfg(seed)), cfg)
		if err != nil {
			t.Fatalf("killAfter=%d: resume failed: %v", killAfter, err)
		}
		if !reflect.DeepEqual(resumed, uninterrupted) {
			t.Fatalf("killAfter=%d: resumed trajectory diverged from uninterrupted run\nresumed: %+v\nuninterrupted: %+v",
				killAfter, resumed, uninterrupted)
		}

		// Running once more against the finished checkpoint is idempotent.
		again, err := Run(faults.MustFaultyLab(newFakeLab(), faultyCfg(seed)), cfg)
		if err != nil {
			t.Fatalf("killAfter=%d: rerun after done: %v", killAfter, err)
		}
		if !reflect.DeepEqual(again, uninterrupted) {
			t.Fatalf("killAfter=%d: done checkpoint not idempotent", killAfter)
		}
	}
}

// TestOnlineCheckpointCleanLab verifies checkpoint/resume also holds for a
// plain fault-free lab (no Resumable state beyond determinism).
func TestOnlineCheckpointCleanLab(t *testing.T) {
	cfg := Config{Policy: engine.RandGoodness{}, MaxExperiments: 10, Seed: 5}
	uninterrupted, err := Run(newFakeLab(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "clean.ckpt")
	cfg.CheckpointPath = path
	kl := &killLab{inner: newFakeLab(), after: 6}
	if _, err := Run(kl, cfg); err == nil {
		t.Fatal("campaign survived the kill")
	}
	resumed, err := Run(newFakeLab(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed, uninterrupted) {
		t.Fatal("resumed clean-lab trajectory diverged")
	}
}

func TestOnlineResumeRejectsMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.ckpt")
	cfg := Config{Policy: engine.RandGoodness{}, MaxExperiments: 3, Seed: 9, CheckpointPath: path}
	if _, err := Run(newFakeLab(), cfg); err != nil {
		t.Fatal(err)
	}
	// Finished checkpoints replay idempotently even under a changed policy?
	// No: config mismatch must be detected before any replay.
	bad := cfg
	bad.Policy = engine.MaxSigma{}
	if _, err := Run(newFakeLab(), bad); err == nil {
		t.Fatal("policy mismatch accepted")
	}
	bad = cfg
	bad.Seed = 10
	if _, err := Run(newFakeLab(), bad); err == nil {
		t.Fatal("seed mismatch accepted")
	}
}

func TestReadCheckpointErrors(t *testing.T) {
	if ck, err := readCheckpoint(filepath.Join(t.TempDir(), "missing")); ck != nil || err != nil {
		t.Fatalf("missing file: %v %v", ck, err)
	}
	p := filepath.Join(t.TempDir(), "garbage")
	if err := os.WriteFile(p, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readCheckpoint(p); err == nil {
		t.Fatal("garbage accepted")
	}
	if err := os.WriteFile(p, []byte(`{"version": 99, "result": {}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readCheckpoint(p); err == nil {
		t.Fatal("future version accepted")
	}
}

// TestCheckpointRestoreErrorPaths pins the failure taxonomy of checkpoint
// restoration: a truncated file, garbled bytes, corrupted lab state, and a
// surrogate-model mismatch each surface a distinct sentinel (errors.Is) so
// operators can tell a crashed copy from a trashed disk from a
// wrong-campaign resume.
func TestCheckpointRestoreErrorPaths(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.json")
	seed := int64(31)

	// Produce a real mid-campaign checkpoint by killing the lab partway.
	cfg := campaignCfg(seed)
	cfg.CheckpointPath = path
	cfg.CheckpointEvery = 1
	kl := &killLab{inner: faults.MustFaultyLab(newFakeLab(), faultyCfg(seed)), after: 5}
	if _, err := Run(kl, cfg); err == nil {
		t.Fatal("kill-lab campaign unexpectedly completed")
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	sentinels := map[string]error{
		"corrupt":   ErrCheckpointCorrupt,
		"truncated": ErrCheckpointTruncated,
		"mismatch":  ErrCheckpointModelMismatch,
	}
	// check asserts err wraps exactly the named sentinel and none other.
	check := func(t *testing.T, err error, want string) {
		t.Helper()
		if err == nil {
			t.Fatal("damaged checkpoint resumed without error")
		}
		for name, sentinel := range sentinels {
			if got := errors.Is(err, sentinel); got != (name == want) {
				t.Fatalf("error %q: errors.Is(%s) = %v, want the %s sentinel only", err, name, got, want)
			}
		}
	}
	resume := func(t *testing.T, data []byte, cfg Config) error {
		t.Helper()
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Run(faults.MustFaultyLab(newFakeLab(), faultyCfg(seed)), cfg)
		return err
	}

	t.Run("truncated file", func(t *testing.T) {
		check(t, resume(t, good[:len(good)/2], cfg), "truncated")
	})
	t.Run("empty file", func(t *testing.T) {
		check(t, resume(t, nil, cfg), "truncated")
	})
	t.Run("corrupted bytes", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		copy(bad[4:], []byte("####")) // garble inside the JSON, same length
		check(t, resume(t, bad, cfg), "corrupt")
	})
	t.Run("corrupted lab state", func(t *testing.T) {
		var ck map[string]json.RawMessage
		if err := json.Unmarshal(good, &ck); err != nil {
			t.Fatal(err)
		}
		if _, ok := ck["lab_state"]; !ok {
			t.Fatal("checkpoint carries no lab state to corrupt")
		}
		// Valid JSON (the outer decode succeeds) whose shape the faulty
		// lab's RestoreLabState rejects.
		ck["lab_state"] = json.RawMessage(`{"attempts": "not-a-list"}`)
		bad, err := json.Marshal(ck)
		if err != nil {
			t.Fatal(err)
		}
		check(t, resume(t, bad, cfg), "corrupt")
	})
	t.Run("model mismatch", func(t *testing.T) {
		mcfg := cfg
		mcfg.Model = &engine.ModelSpec{Name: engine.ModelSparse, Inducing: 16}
		check(t, resume(t, good, mcfg), "mismatch")
	})
	t.Run("intact checkpoint still resumes", func(t *testing.T) {
		if err := os.WriteFile(path, good, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Run(faults.MustFaultyLab(newFakeLab(), faultyCfg(seed)), cfg); err != nil {
			t.Fatalf("undamaged checkpoint failed to resume: %v", err)
		}
	})
}

// TestCheckpointFailedCommitLeavesNoTemp forces the checkpoint's rename to
// fail (the target is a non-empty directory): the error names the commit,
// the target's previous contents are intact, and no temp file is left in
// the checkpoint directory.
func TestCheckpointFailedCommitLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "checkpoint.ckpt")
	if err := os.Mkdir(target, 0o755); err != nil {
		t.Fatal(err)
	}
	keep := filepath.Join(target, "keep")
	if err := os.WriteFile(keep, []byte("previous"), 0o644); err != nil {
		t.Fatal(err)
	}
	c := &campaign{cfg: Config{Policy: engine.RGMA{}, CheckpointPath: target}, res: &Result{}, src: stats.NewCountingSource(1)}
	err := c.saveCheckpoint(false)
	if err == nil || !strings.Contains(err.Error(), "online: committing checkpoint") {
		t.Fatalf("err = %v, want a committing-checkpoint error", err)
	}
	if got, err := os.ReadFile(keep); err != nil || string(got) != "previous" {
		t.Fatalf("previous bytes = %q, %v; want %q", got, err, "previous")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "checkpoint.ckpt" {
		t.Fatalf("checkpoint directory holds %v, want only checkpoint.ckpt", ents)
	}
}
