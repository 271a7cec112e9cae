package remotelab

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"alamr/internal/dataset"
	"alamr/internal/engine"
	"alamr/internal/faults"
	"alamr/internal/online"
)

// synthFleet builds a dispatcher plus n in-process SynthLab workers, all
// torn down with the test.
func synthFleet(t *testing.T, seed int64, n int, pool []dataset.Combo) *Dispatcher {
	t.Helper()
	d := testDispatcher(t, Config{Seed: seed, Candidates: pool})
	for i := 0; i < n; i++ {
		startWorker(t, d, fmt.Sprintf("w%d", i), SynthLab{}, 0)
	}
	waitWorkers(t, d, n)
	return d
}

// remoteCampaignCfg is the shared campaign shape of the resume and chaos
// tests: a small candidate pool (speed), a memory limit comfortably above
// the pool's analytic footprints (so the memory-aware policy keeps
// selecting), seeded retries.
func remoteCampaignCfg(seed int64) online.Config {
	return online.Config{
		Policy:         engine.RGMA{},
		MaxExperiments: 8,
		MemLimitMB:     0.5,
		Seed:           seed,
		Retry:          faults.RetryPolicy{MaxAttempts: 6},
	}
}

// crashLab wraps a dispatcher and fails fatally after a fixed number of
// campaign lab calls — the stand-in for kill -9 of the *campaign* process
// (the workers and their dispatcher die with it; resume builds new ones).
type crashLab struct {
	d     *Dispatcher
	after int
	calls int
}

func (l *crashLab) Candidates() []dataset.Combo { return l.d.Candidates() }

func (l *crashLab) Run(c dataset.Combo) (dataset.Job, error) {
	l.calls++
	if l.calls > l.after {
		return dataset.Job{}, errors.New("campaign process killed")
	}
	return l.d.Run(c)
}

func (l *crashLab) LabState() ([]byte, error) { return l.d.LabState() }

func (l *crashLab) RestoreLabState(b []byte) error { return l.d.RestoreLabState(b) }

// TestDispatcherCampaignKillResume is the kill-the-campaign recovery
// contract for the remote lab: a campaign driving a worker fleet dies
// mid-flight, and a fresh campaign process — new dispatcher, new port, new
// workers — resumes from the checkpoint to a Result bitwise identical to
// an uninterrupted run. The dispatcher's run counter travels in LabState,
// so resumed assignments draw the same per-run noise seeds the dead
// campaign would have.
func TestDispatcherCampaignKillResume(t *testing.T) {
	const seed = 7
	pool := dataset.AllCombos()[:64]
	cfg := remoteCampaignCfg(seed)

	uninterrupted, err := online.Run(synthFleet(t, seed, 2, pool), cfg)
	if err != nil {
		t.Fatalf("uninterrupted run failed: %v", err)
	}
	if got := uninterrupted.Health.Attempts; got < 9 {
		t.Fatalf("uninterrupted run executed %d jobs, want the full init+8 campaign", got)
	}

	for _, killAfter := range []int{2, 6} {
		t.Run(fmt.Sprintf("killAfter=%d", killAfter), func(t *testing.T) {
			ckpt := cfg
			ckpt.CheckpointPath = filepath.Join(t.TempDir(), "campaign.ckpt")

			// First campaign process: dies after killAfter lab calls.
			kl := &crashLab{d: synthFleet(t, seed, 2, pool), after: killAfter}
			partial, err := online.Run(kl, ckpt)
			if err == nil {
				t.Fatal("campaign survived the kill")
			}
			if partial == nil {
				t.Fatal("no partial result returned")
			}

			// Second campaign process: a brand-new fleet resumes the
			// checkpoint.
			resumed, err := online.Run(synthFleet(t, seed, 2, pool), ckpt)
			if err != nil {
				t.Fatalf("resumed run failed: %v", err)
			}
			if !reflect.DeepEqual(resumed, uninterrupted) {
				t.Fatalf("resumed trajectory diverged:\n%+v\nvs uninterrupted\n%+v",
					resumed, uninterrupted)
			}
		})
	}
}
