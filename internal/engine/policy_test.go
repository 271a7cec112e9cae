package engine

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func cands(muC, sigC, muM, sigM []float64, limitLog float64) *Candidates {
	return &Candidates{
		MuCost: muC, SigmaCost: sigC, MuMem: muM, SigmaMem: sigM,
		MemLimitLog: limitLog,
	}
}

func flat(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func TestPolicyNames(t *testing.T) {
	for name, p := range map[string]Policy{
		"RandUniform":  RandUniform{},
		"MaxSigma":     MaxSigma{},
		"MinPred":      MinPred{},
		"RandGoodness": RandGoodness{},
		"RGMA":         RGMA{},
	} {
		if p.Name() != name {
			t.Fatalf("Name() = %q want %q", p.Name(), name)
		}
	}
}

func TestValidateEmptyAndInconsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	empty := cands(nil, nil, nil, nil, math.Inf(1))
	if _, err := (RandUniform{}).Select(empty, rng); err == nil {
		t.Fatal("empty candidates accepted")
	}
	bad := cands([]float64{1, 2}, []float64{1}, []float64{1, 2}, []float64{1, 2}, math.Inf(1))
	if _, err := (MaxSigma{}).Select(bad, rng); err == nil {
		t.Fatal("inconsistent candidates accepted")
	}
}

func TestMaxSigmaPicksLargestUncertainty(t *testing.T) {
	c := cands([]float64{0, 0, 0}, []float64{0.1, 0.7, 0.3}, flat(3, 0), flat(3, 0), math.Inf(1))
	got, err := (MaxSigma{}).Select(c, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("MaxSigma picked %d want 1", got)
	}
}

func TestMinPredPicksCheapest(t *testing.T) {
	// Equal sigmas: argmax(σ−μ) = argmin μ.
	c := cands([]float64{2, -1, 0.5}, flat(3, 0.1), flat(3, 0), flat(3, 0), math.Inf(1))
	got, err := (MinPred{}).Select(c, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("MinPred picked %d want 1", got)
	}
}

func TestMinPredDominatedByMu(t *testing.T) {
	// Even a large uncertainty cannot overcome a big cost difference — the
	// degeneracy the paper names the policy after.
	c := cands([]float64{3, 0}, []float64{0.9, 0.05}, flat(2, 0), flat(2, 0), math.Inf(1))
	got, _ := (MinPred{}).Select(c, rand.New(rand.NewSource(4)))
	if got != 1 {
		t.Fatalf("MinPred picked %d want 1", got)
	}
}

func TestRandUniformCoversAll(t *testing.T) {
	c := cands(flat(4, 0), flat(4, 0), flat(4, 0), flat(4, 0), math.Inf(1))
	rng := rand.New(rand.NewSource(5))
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		got, err := (RandUniform{}).Select(c, rng)
		if err != nil {
			t.Fatal(err)
		}
		seen[got] = true
	}
	if len(seen) != 4 {
		t.Fatalf("RandUniform covered %d of 4", len(seen))
	}
}

func TestRandGoodnessPrefersCheap(t *testing.T) {
	// Candidate 0 is 2 decades cheaper: goodness ratio 100:1.
	c := cands([]float64{-1, 1}, flat(2, 0.1), flat(2, 0), flat(2, 0), math.Inf(1))
	rng := rand.New(rand.NewSource(6))
	counts := [2]int{}
	for i := 0; i < 5000; i++ {
		got, err := (RandGoodness{}).Select(c, rng)
		if err != nil {
			t.Fatal(err)
		}
		counts[got]++
	}
	frac := float64(counts[0]) / 5000
	if math.Abs(frac-100.0/101.0) > 0.01 {
		t.Fatalf("cheap fraction = %g want ~0.99", frac)
	}
}

func TestRandGoodnessBaseSkew(t *testing.T) {
	// A higher base skews harder toward the cheap candidate.
	c := cands([]float64{0, 0.5}, flat(2, 0), flat(2, 0), flat(2, 0), math.Inf(1))
	sample := func(p Policy) float64 {
		rng := rand.New(rand.NewSource(7))
		n, hits := 4000, 0
		for i := 0; i < n; i++ {
			got, err := p.Select(c, rng)
			if err != nil {
				t.Fatal(err)
			}
			if got == 0 {
				hits++
			}
		}
		return float64(hits) / float64(n)
	}
	f10 := sample(RandGoodness{Base: 10})
	f100 := sample(RandGoodness{Base: 100})
	if f100 <= f10 {
		t.Fatalf("base 100 not more skewed: %g vs %g", f100, f10)
	}
}

func TestGoodnessOverflowGuard(t *testing.T) {
	// Exponents far beyond float range must not produce Inf/NaN weights.
	c := cands([]float64{-400, 400}, flat(2, 0), flat(2, 0), flat(2, 0), math.Inf(1))
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 100; i++ {
		got, err := (RandGoodness{}).Select(c, rng)
		if err != nil {
			t.Fatal(err)
		}
		if got != 0 {
			t.Fatalf("picked the 800-decade more expensive candidate")
		}
	}
}

func TestRGMAFiltersViolators(t *testing.T) {
	// Candidate 0 is cheapest but predicted over the limit.
	c := cands(
		[]float64{-3, 0, 0.2},
		flat(3, 0.1),
		[]float64{2, 0.5, 0.4}, // log10 MB predictions
		flat(3, 0.1),
		1.0, // limit 10 MB → log 1
	)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 100; i++ {
		got, err := (RGMA{}).Select(c, rng)
		if err != nil {
			t.Fatal(err)
		}
		if got == 0 {
			t.Fatal("RGMA selected a predicted violator")
		}
	}
}

func TestRGMAAllExceed(t *testing.T) {
	c := cands(flat(2, 0), flat(2, 0.1), []float64{3, 4}, flat(2, 0.1), 1.0)
	if _, err := (RGMA{}).Select(c, rand.New(rand.NewSource(10))); !errors.Is(err, ErrAllExceedLimit) {
		t.Fatalf("err = %v want ErrAllExceedLimit", err)
	}
}

func TestRGMANoLimitBehavesLikeRandGoodness(t *testing.T) {
	c := cands([]float64{-1, 1}, flat(2, 0.1), flat(2, 0), flat(2, 0), math.Inf(1))
	a := rand.New(rand.NewSource(11))
	b := rand.New(rand.NewSource(11))
	for i := 0; i < 50; i++ {
		ga, err := (RGMA{}).Select(c, a)
		if err != nil {
			t.Fatal(err)
		}
		gb, err := (RandGoodness{}).Select(c, b)
		if err != nil {
			t.Fatal(err)
		}
		if ga != gb {
			t.Fatalf("RGMA without limit diverged from RandGoodness at %d", i)
		}
	}
}

func TestSatisfying(t *testing.T) {
	c := cands(flat(3, 0), flat(3, 0), []float64{0.5, 1.5, 0.9}, flat(3, 0), 1.0)
	s := c.Satisfying()
	if len(s) != 2 || s[0] != 0 || s[1] != 2 {
		t.Fatalf("Satisfying = %v", s)
	}
}

// Property: every policy returns an index within range for arbitrary valid
// candidate sets.
func TestPoliciesInRangeProperty(t *testing.T) {
	policies := []Policy{RandUniform{}, MaxSigma{}, MinPred{}, RandGoodness{}, RGMA{}}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		muC := make([]float64, n)
		sigC := make([]float64, n)
		muM := make([]float64, n)
		sigM := make([]float64, n)
		for i := 0; i < n; i++ {
			muC[i] = rng.NormFloat64() * 2
			sigC[i] = rng.Float64()
			muM[i] = rng.NormFloat64()
			sigM[i] = rng.Float64()
		}
		c := cands(muC, sigC, muM, sigM, 0.5)
		for _, p := range policies {
			got, err := p.Select(c, rng)
			if err != nil {
				if errors.Is(err, ErrAllExceedLimit) {
					continue
				}
				return false
			}
			if got < 0 || got >= n {
				return false
			}
			if p.Name() == "RGMA" && muM[got] >= 0.5 {
				return false // RGMA must never pick a predicted violator
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestExpectedImprovementPrefersLowMeanHighSigma(t *testing.T) {
	// Candidate 1 has the lowest mean; candidate 2 matches the incumbent
	// mean but with large uncertainty. EI must pick one of those, never the
	// clearly-worse candidate 0.
	c := cands(
		[]float64{2.0, 0.0, 0.1},
		[]float64{0.01, 0.01, 0.8},
		flat(3, 0), flat(3, 0), math.Inf(1),
	)
	rng := rand.New(rand.NewSource(20))
	got, err := (ExpectedImprovement{}).Select(c, rng)
	if err != nil {
		t.Fatal(err)
	}
	if got == 0 {
		t.Fatal("EI picked the dominated candidate")
	}
}

func TestExpectedImprovementUncertaintyBreaksTies(t *testing.T) {
	// Equal means: the higher-σ candidate has higher EI.
	c := cands(
		[]float64{0, 0},
		[]float64{0.05, 0.5},
		flat(2, 0), flat(2, 0), math.Inf(1),
	)
	got, err := (ExpectedImprovement{}).Select(c, rand.New(rand.NewSource(21)))
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("EI picked %d want 1", got)
	}
}

func TestBOLocalizesALGeneralizes(t *testing.T) {
	// The §II-C contrast: on the same partition and budget, EI concentrates
	// its samples near the cheap corner (low selection diversity) while the
	// AL policy keeps learning globally, ending with better test RMSE.
	ds := synthDS(150, 70)
	part := smallPartition(t, ds, 15, 40, 21)
	run := func(p Policy) *Trajectory {
		tr, err := RunReplay(ds, part, LoopConfig{Policy: p, MaxIterations: 40, Seed: 23})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	bo := run(ExpectedImprovement{})
	al := run(MaxSigma{})
	if al.CostRMSE[39] >= bo.CostRMSE[39] {
		t.Fatalf("AL RMSE %g not better than BO %g — the paper's §II-C contrast failed",
			al.CostRMSE[39], bo.CostRMSE[39])
	}
}
