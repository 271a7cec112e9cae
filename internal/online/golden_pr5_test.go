package online

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"alamr/internal/engine"
	"alamr/internal/faults"
)

// The golden_pr5 tests pin fixed-seed online campaigns captured from the
// loop that predates the shared engine loop; see goldenCheck in
// internal/engine/golden_pr5_test.go for the capture/compare protocol.
const goldenDir = "../../results/golden_pr5"

func goldenCheck(t *testing.T, name string, got any) {
	t.Helper()
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	path := filepath.Join(goldenDir, name+".json")
	if os.Getenv("GOLDEN_UPDATE") != "" {
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (regenerate with GOLDEN_UPDATE=1 go test): %v", err)
	}
	if !bytes.Equal(data, want) {
		i := 0
		for i < len(data) && i < len(want) && data[i] == want[i] {
			i++
		}
		lo, hi := i-40, i+40
		if lo < 0 {
			lo = 0
		}
		clip := func(b []byte) string {
			if hi > len(b) {
				return string(b[lo:])
			}
			return string(b[lo:hi])
		}
		t.Fatalf("%s diverges from the pinned pre-refactor campaign at byte %d:\n got ...%s...\nwant ...%s...",
			name, i, clip(data), clip(want))
	}
}

func TestGoldenOnlineClean(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy engine.Policy
	}{
		{"randuniform", engine.RandUniform{}},
		{"randgoodness", engine.RandGoodness{}},
		{"rgma", engine.RGMA{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(newFakeLab(), Config{
				Policy:         tc.policy,
				MaxExperiments: 12,
				MemLimitMB:     0.35,
				Seed:           7,
			})
			if err != nil {
				t.Fatal(err)
			}
			goldenCheck(t, "online_clean_"+tc.name, res)
		})
	}
}

func TestGoldenOnlineBudget(t *testing.T) {
	res, err := Run(newFakeLab(), Config{
		Policy:         engine.MaxSigma{},
		MaxExperiments: 40,
		Budget:         0.5,
		Seed:           3,
	})
	if err != nil {
		t.Fatal(err)
	}
	goldenCheck(t, "online_budget_maxsigma", res)
}

// TestGoldenOnlineFaulty pins a campaign through the full fault cocktail:
// retries, censored OOM kills feeding only the memory surrogate, and the
// health ledger.
func TestGoldenOnlineFaulty(t *testing.T) {
	res, err := Run(faults.MustFaultyLab(newFakeLab(), faultyCfg(31)), campaignCfg(31))
	if err != nil {
		t.Fatal(err)
	}
	goldenCheck(t, "online_faulty_rgma", res)
}

// TestGoldenOnlineResumeMatchesPin kills the faulty campaign mid-flight and
// resumes from its checkpoint; the resumed result must match the same
// pinned bytes as the uninterrupted run.
func TestGoldenOnlineResumeMatchesPin(t *testing.T) {
	cfg := campaignCfg(31)
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "campaign.ckpt")
	kl := &killLab{inner: faults.MustFaultyLab(newFakeLab(), faultyCfg(31)), after: 5}
	if _, err := Run(kl, cfg); err == nil {
		t.Fatal("campaign survived the kill")
	}
	resumed, err := Run(faults.MustFaultyLab(newFakeLab(), faultyCfg(31)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	goldenCheck(t, "online_faulty_rgma", resumed)
}
