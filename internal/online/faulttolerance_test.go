package online

import (
	"errors"
	"fmt"
	"os"
	"testing"

	"alamr/internal/dataset"
	"alamr/internal/engine"
	"alamr/internal/faults"
)

// countKills tallies censored selections of a campaign.
func countKills(res *Result) int {
	n := 0
	for _, c := range res.Censored {
		if c {
			n++
		}
	}
	return n
}

// TestOnlineTransientFaultsRecovered: with retryable faults and a retry
// budget, the campaign completes at full length and the ledger accounts for
// every attempt.
func TestOnlineTransientFaultsRecovered(t *testing.T) {
	lab := faults.MustFaultyLab(newFakeLab(), faults.LabConfig{
		Seed: 7, PTransient: 0.25, PCorrupt: 0.1,
	})
	res, err := Run(lab, Config{
		Policy:         engine.RandGoodness{},
		MaxExperiments: 20,
		Seed:           7,
		Retry:          faults.RetryPolicy{MaxAttempts: 8},
	})
	if err != nil {
		t.Fatalf("campaign did not survive retryable faults: %v", err)
	}
	if len(res.Jobs) != 21 {
		t.Fatalf("jobs = %d want 21", len(res.Jobs))
	}
	h := res.Health
	if !h.Consistent() {
		t.Fatalf("ledger does not balance: %+v", h)
	}
	if h.Retries == 0 {
		t.Fatal("25% transient rate caused no retries")
	}
	if h.Successes != 21 {
		t.Fatalf("successes = %d want 21", h.Successes)
	}
	// Every failed attempt is classified.
	total := 0
	for _, n := range h.FaultsByClass {
		total += n
	}
	if total != h.Attempts-h.Successes {
		t.Fatalf("classified faults %d != failed attempts %d", total, h.Attempts-h.Successes)
	}
	if h.BackoffSec <= 0 {
		t.Fatal("retries accrued no backoff")
	}
}

// TestOnlineCensoredOOMObservations: OOM kills must not abort the campaign;
// they surface as censored selections whose ActualMem is clamped at the RSS
// limit, whose wasted cost accrues to CC and CR, and which feed the memory
// model.
func TestOnlineCensoredOOMObservations(t *testing.T) {
	const limit = 0.3
	lab := faults.MustFaultyLab(newFakeLab(), faults.LabConfig{Seed: 13, RSSLimitMB: limit})
	res, err := Run(lab, Config{
		// MaxSigma chases uncertainty into the high-memory corner, so kills
		// are guaranteed.
		Policy:         engine.MaxSigma{},
		MaxExperiments: 25,
		MemLimitMB:     limit,
		Seed:           13,
	})
	if err != nil {
		t.Fatalf("campaign aborted on OOM kills: %v", err)
	}
	kills := countKills(res)
	if kills == 0 {
		t.Fatal("MaxSigma campaign triggered no OOM kills")
	}
	if res.Health.Censored != kills {
		t.Fatalf("ledger censored %d != censored selections %d", res.Health.Censored, kills)
	}
	for i, cen := range res.Censored {
		if !cen {
			continue
		}
		if res.ActualMem[i] != limit {
			t.Fatalf("selection %d: censored ActualMem %g want clamp at %g", i, res.ActualMem[i], limit)
		}
		if !res.Violation[i] {
			t.Fatalf("selection %d: OOM kill not counted as violation", i)
		}
		if res.ActualCost[i] <= 0 {
			t.Fatalf("selection %d: no partial cost charged", i)
		}
		// Wasted cost accrues to cumulative regret.
		prev := 0.0
		if i > 0 {
			prev = res.CumRegret[i-1]
		}
		if res.CumRegret[i] <= prev {
			t.Fatalf("selection %d: kill cost missing from CR", i)
		}
	}
}

// TestOnlineCensoringReducesViolations is the §V-C analogue: RGMA fed with
// its own censored OOM observations must hit the limit far less often than a
// memory-blind uniform sampler under the same fault injector.
func TestOnlineCensoringReducesViolations(t *testing.T) {
	const limit = 0.3
	run := func(p engine.Policy) *Result {
		lab := faults.MustFaultyLab(newFakeLab(), faults.LabConfig{Seed: 17, RSSLimitMB: limit})
		res, err := Run(lab, Config{
			Policy:         p,
			MaxExperiments: 40,
			MemLimitMB:     limit,
			Seed:           17,
			InitDesign: []dataset.Combo{
				{P: 8, Mx: 16, MaxLevel: 4, R0: 0.3, RhoIn: 0.1},
				{P: 4, Mx: 32, MaxLevel: 5, R0: 0.3, RhoIn: 0.1},
			},
		})
		if err != nil {
			t.Fatalf("%s campaign failed: %v", p.Name(), err)
		}
		return res
	}
	rgma := run(engine.RGMA{})
	uniform := run(engine.RandUniform{})
	kr, ku := countKills(rgma), countKills(uniform)
	if ku == 0 {
		t.Fatal("uniform sampling triggered no kills; limit not binding")
	}
	if kr >= ku {
		t.Fatalf("censored feedback did not reduce kills: rgma %d vs uniform %d", kr, ku)
	}
	// Learning shows within the RGMA trajectory too: the second half of the
	// campaign violates no more than the first.
	half := len(rgma.Censored) / 2
	first, second := 0, 0
	for i, c := range rgma.Censored {
		if !c {
			continue
		}
		if i < half {
			first++
		} else {
			second++
		}
	}
	if second > first {
		t.Fatalf("kills increased over time: first half %d, second half %d", first, second)
	}
}

// TestOnlineInitDesignKeepsPartialJobs is the warm-up robustness contract:
// a fatal failure in the middle of the init design returns the jobs already
// run instead of discarding them.
func TestOnlineInitDesignKeepsPartialJobs(t *testing.T) {
	lab := &errLab{fakeLab{combos: dataset.AllCombos()}} // fails from the 4th run on
	res, err := Run(lab, Config{
		Policy: engine.RandUniform{},
		Seed:   5,
		InitDesign: []dataset.Combo{
			{P: 8, Mx: 16, MaxLevel: 4, R0: 0.3, RhoIn: 0.1},
			{P: 16, Mx: 16, MaxLevel: 4, R0: 0.4, RhoIn: 0.2},
			{P: 4, Mx: 8, MaxLevel: 3, R0: 0.2, RhoIn: 0.05},
			{P: 32, Mx: 24, MaxLevel: 5, R0: 0.5, RhoIn: 0.35},
			{P: 24, Mx: 32, MaxLevel: 6, R0: 0.2, RhoIn: 0.5},
		},
	})
	if err == nil {
		t.Fatal("fatal init failure swallowed")
	}
	if res == nil {
		t.Fatal("partial result discarded")
	}
	if len(res.Jobs) != 3 {
		t.Fatalf("preserved %d warm-up jobs, want 3", len(res.Jobs))
	}
	if res.Reason != engine.StopFault {
		t.Fatalf("reason %s", res.Reason)
	}
	if res.Health.Fatal != 1 || !res.Health.Consistent() {
		t.Fatalf("health %+v", res.Health)
	}
}

// TestOnlineRetryBudgetExhaustionReturnsPartial: when a job burns its whole
// attempt budget the campaign stops — but with everything learned so far.
func TestOnlineRetryBudgetExhaustionReturnsPartial(t *testing.T) {
	lab := faults.MustFaultyLab(newFakeLab(), faults.LabConfig{Seed: 23, PTransient: 0.45})
	res, err := Run(lab, Config{
		Policy:         engine.RandUniform{},
		MaxExperiments: 60,
		Seed:           23,
		Retry:          faults.RetryPolicy{MaxAttempts: 3},
	})
	if err == nil {
		// Statistically near-impossible with p=0.45 and 3 attempts over 60
		// jobs (p(all survive) < 0.5%), and the seed is fixed anyway.
		t.Fatal("expected an exhausted retry budget")
	}
	var f *faults.Fault
	if !errors.As(err, &f) {
		t.Fatalf("terminal error not classified: %v", err)
	}
	if res == nil || len(res.Jobs) == 0 {
		t.Fatal("partial results discarded on exhaustion")
	}
	if res.Health.Fatal != 1 || !res.Health.Consistent() {
		t.Fatalf("health %+v", res.Health)
	}
}

// TestOnlineChaos drives RGMA campaigns through a hostile injector across
// seeds: every campaign must either complete or stop gracefully with
// partial results and a balanced ledger. `make chaos` raises the seed count
// via the CHAOS environment variable.
func TestOnlineChaos(t *testing.T) {
	seeds := 3
	if os.Getenv("CHAOS") != "" {
		seeds = 10
	}
	completed := 0
	for s := 0; s < seeds; s++ {
		s := s
		t.Run(fmt.Sprintf("seed=%d", s), func(t *testing.T) {
			lab := faults.MustFaultyLab(newFakeLab(), faults.LabConfig{
				Seed:         int64(s),
				RSSLimitMB:   0.5,
				WallLimitSec: 40,
				PTransient:   0.3,
				PCorrupt:     0.15,
			})
			res, err := Run(lab, Config{
				Policy:         engine.RGMA{},
				MaxExperiments: 25,
				MemLimitMB:     0.5,
				Seed:           int64(100 + s),
				Retry:          faults.RetryPolicy{MaxAttempts: 6},
			})
			if res == nil {
				t.Fatalf("no result at all: %v", err)
			}
			if !res.Health.Consistent() {
				t.Fatalf("ledger does not balance: %+v", res.Health)
			}
			if err != nil {
				if res.Health.Fatal == 0 {
					t.Fatalf("error without a fatal ledger entry: %v", err)
				}
				t.Logf("graceful stop after %d jobs: %v", len(res.Jobs), err)
				return
			}
			completed++
			if len(res.Jobs) == 0 {
				t.Fatal("completed with no jobs")
			}
			injected := lab.InjectedByClass()
			if injected[faults.ClassTransient] == 0 {
				t.Fatalf("chaos injected no transients: %v", injected)
			}
		})
	}
	if completed == 0 {
		t.Fatalf("no campaign completed across %d seeds", seeds)
	}
}
