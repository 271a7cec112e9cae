package engine

import (
	"reflect"
	"testing"
)

// The acceptance contract of the incremental scoring engine: on fixed
// seeds, the cache-driven loop must make exactly the same policy selections
// (same RNG draws, same indices, same metrics) as the direct-Predict
// reference loop. reflect.DeepEqual on Trajectory compares every float64
// slice exactly; trajectories never carry NaN, so this is bitwise equality
// of the recorded run.
func TestCachedLoopMatchesDirectLoop(t *testing.T) {
	ds := synthDS(140, 42)
	part := smallPartition(t, ds, 10, 40, 7)
	policies := []Policy{RandUniform{}, MaxSigma{}, RandGoodness{}, RGMA{}}
	for _, p := range policies {
		cfg := LoopConfig{
			Policy:        p,
			MaxIterations: 30,
			MemLimitMB:    0.08,
			HyperoptEvery: 7,
			Seed:          13,
		}
		cached, err := RunReplay(ds, part, cfg)
		if err != nil {
			t.Fatalf("%s: cached run: %v", p.Name(), err)
		}
		cfg.DirectScoring = true
		direct, err := RunReplay(ds, part, cfg)
		if err != nil {
			t.Fatalf("%s: direct run: %v", p.Name(), err)
		}
		if !reflect.DeepEqual(cached.Selected, direct.Selected) {
			t.Fatalf("%s: selections diverged\ncached: %v\ndirect: %v", p.Name(), cached.Selected, direct.Selected)
		}
		if !reflect.DeepEqual(cached, direct) {
			t.Fatalf("%s: trajectories diverged beyond selections\ncached: %+v\ndirect: %+v", p.Name(), cached, direct)
		}
	}
}

// Same contract for the q-batch loop, which additionally exercises the
// constant-liar batch strategies reading candidate feature rows from the
// scorer-maintained pool matrix and the descending-order batch removal.
func TestCachedBatchLoopMatchesDirectLoop(t *testing.T) {
	ds := synthDS(140, 43)
	part := smallPartition(t, ds, 10, 40, 9)
	for _, strategy := range []BatchStrategy{BatchIndependent, BatchConstantLiar} {
		cfg := LoopConfig{
			Policy:        RandGoodness{},
			MaxIterations: 24,
			MemLimitMB:    0.08,
			HyperoptEvery: 8,
			Seed:          17,
		}
		cached, err := RunReplayBatch(ds, part, cfg, 3, strategy)
		if err != nil {
			t.Fatalf("%s: cached run: %v", strategy, err)
		}
		cfg.DirectScoring = true
		direct, err := RunReplayBatch(ds, part, cfg, 3, strategy)
		if err != nil {
			t.Fatalf("%s: direct run: %v", strategy, err)
		}
		if !reflect.DeepEqual(cached, direct) {
			t.Fatalf("%s: batch trajectories diverged\ncached: %+v\ndirect: %+v", strategy, cached, direct)
		}
	}
}

// The stable-predictions stopping path predicts on the held-out test set
// (never the pool); it must be unaffected by the scoring engine.
func TestCachedLoopStableStopMatchesDirect(t *testing.T) {
	ds := synthDS(140, 44)
	part := smallPartition(t, ds, 12, 40, 11)
	cfg := LoopConfig{
		Policy:        MaxSigma{},
		MaxIterations: 40,
		Seed:          3,
		Stable:        &StableStopConfig{Window: 3, Tol: 0.02},
	}
	cached, err := RunReplay(ds, part, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.DirectScoring = true
	cfg.Stable = &StableStopConfig{Window: 3, Tol: 0.02}
	direct, err := RunReplay(ds, part, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cached, direct) {
		t.Fatalf("stable-stop trajectories diverged\ncached: %+v\ndirect: %+v", cached, direct)
	}
}
