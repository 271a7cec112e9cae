package experiments

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"alamr/internal/engine"
)

func TestRunBatchGroupingAndDeterminism(t *testing.T) {
	opts := Options{Dataset: tinyDataset(90, 51), NTest: 30, Partitions: 2, MaxIterations: 8}
	specs := []batchSpec{
		{Policy: engine.RandUniform{}, NInit: 5},
		{Policy: engine.MinPred{}, NInit: 5},
	}
	a, err := runBatch(opts, 37, specs, engine.LoopConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 2 {
		t.Fatalf("groups = %d want 2", len(a))
	}
	for key, trs := range a {
		if len(trs) != 2 {
			t.Fatalf("%s has %d trajectories want 2", key, len(trs))
		}
	}
	b, err := runBatch(opts, 37, specs, engine.LoopConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for key := range a {
		for i := range a[key] {
			if a[key][i].CumCost[0] != b[key][i].CumCost[0] {
				t.Fatalf("batch non-deterministic for %s[%d]", key, i)
			}
		}
	}
}

func TestRunBatchSharedPartitions(t *testing.T) {
	opts := Options{Dataset: tinyDataset(90, 52), NTest: 30, Partitions: 1, MaxIterations: 5}
	got, err := runBatch(opts, 41, []batchSpec{
		{Policy: engine.RandUniform{}, NInit: 5},
		{Policy: engine.MaxSigma{}, NInit: 5},
	}, engine.LoopConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Same nInit → same partition → identical initial RMSE for both
	// policies.
	var inits []float64
	for _, trs := range got {
		inits = append(inits, trs[0].InitCostRMSE)
	}
	if len(inits) != 2 || inits[0] != inits[1] {
		t.Fatalf("policies did not share partitions: %v", inits)
	}
}

func TestRunBatchValidation(t *testing.T) {
	if _, err := runBatch(Options{Dataset: tinyDataset(50, 53)}, 0, nil, engine.LoopConfig{}); err == nil {
		t.Fatal("empty specs accepted")
	}
}

func TestCurveSetAndAggregate(t *testing.T) {
	trs := []*engine.Trajectory{
		{CostRMSE: []float64{3, 2, 1}, CumCost: []float64{1, 2, 3}, CumRegret: []float64{0, 0, 1}, MemRMSE: []float64{1, 1, 1}},
		{CostRMSE: []float64{4, 3, 2}, CumCost: []float64{2, 3, 4}, CumRegret: []float64{0, 1, 1}, MemRMSE: []float64{2, 2, 2}},
	}
	for _, metric := range []string{"cost-rmse", "mem-rmse", "cum-cost", "cum-regret"} {
		band, err := aggregateCurves(trs, metric)
		if err != nil {
			t.Fatal(err)
		}
		if len(band.Mid) != 3 || len(band.Lo) != 3 || len(band.Hi) != 3 {
			t.Fatalf("%s shape wrong", metric)
		}
	}
	if _, err := aggregateCurves(trs, "nope"); err == nil {
		t.Fatal("unknown metric accepted")
	}
	band, err := aggregateCurves(trs, "cost-rmse")
	if err != nil {
		t.Fatal(err)
	}
	if band.Mid[0] != 3.5 {
		t.Fatalf("median = %g want 3.5", band.Mid[0])
	}
}

// errPolicy fails every selection — a stand-in for a worker whose task is
// broken from the start.
type errPolicy struct{}

func (errPolicy) Name() string { return "ErrPolicy" }
func (errPolicy) Select(*engine.Candidates, *rand.Rand) (int, error) {
	return 0, errors.New("policy exploded")
}

// panicPolicy panics on selection — a stand-in for a worker hitting a bug.
type panicPolicy struct{}

func (panicPolicy) Name() string { return "PanicPolicy" }
func (panicPolicy) Select(*engine.Candidates, *rand.Rand) (int, error) {
	panic("selection bug")
}

// TestRunBatchIsolatesWorkerErrors: one broken spec must not discard the
// trajectories of its healthy siblings.
func TestRunBatchIsolatesWorkerErrors(t *testing.T) {
	opts := Options{Dataset: tinyDataset(90, 61), NTest: 30, Partitions: 2, MaxIterations: 5}
	grouped, err := runBatch(opts, 44, []batchSpec{
		{Policy: engine.RandUniform{}, NInit: 5},
		{Policy: errPolicy{}, NInit: 5},
	}, engine.LoopConfig{})
	if err == nil {
		t.Fatal("broken spec reported no error")
	}
	good := grouped[batchSpec{Policy: engine.RandUniform{}, NInit: 5}.Key()]
	if len(good) != 2 {
		t.Fatalf("healthy spec kept %d trajectories, want 2", len(good))
	}
	if _, ok := grouped[batchSpec{Policy: errPolicy{}, NInit: 5}.Key()]; ok {
		t.Fatal("failed tasks grouped as results")
	}
	if got := err.Error(); !strings.Contains(got, "ErrPolicy") || !strings.Contains(got, "policy exploded") {
		t.Fatalf("error does not identify the failing task: %v", got)
	}
}

// TestRunBatchRecoversWorkerPanic: a panicking worker becomes a per-task
// error, not a crashed process.
func TestRunBatchRecoversWorkerPanic(t *testing.T) {
	opts := Options{Dataset: tinyDataset(90, 62), NTest: 30, Partitions: 1, MaxIterations: 5}
	grouped, err := runBatch(opts, 45, []batchSpec{
		{Policy: engine.RandUniform{}, NInit: 5},
		{Policy: panicPolicy{}, NInit: 5},
	}, engine.LoopConfig{})
	if err == nil {
		t.Fatal("panic swallowed silently")
	}
	if !strings.Contains(err.Error(), "panic") || !strings.Contains(err.Error(), "selection bug") {
		t.Fatalf("panic not surfaced in the error: %v", err)
	}
	if len(grouped[batchSpec{Policy: engine.RandUniform{}, NInit: 5}.Key()]) != 1 {
		t.Fatal("panic discarded the healthy sibling")
	}
}
