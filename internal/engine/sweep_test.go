package engine

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"alamr/internal/dataset"
	"alamr/internal/obs"
)

// synthDS builds a small synthetic dataset with smooth cost/memory response
// surfaces plus mild log-normal noise, so GPR can actually learn them.
func synthDS(n int, seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	combos := dataset.AllCombos()
	ds := &dataset.Dataset{}
	for i := 0; i < n; i++ {
		c := combos[rng.Intn(len(combos))]
		noise := math.Exp(rng.NormFloat64() * 0.05)
		wall := 2.0 * math.Pow(float64(c.Mx)/8, 1.5) * math.Pow(2, float64(c.MaxLevel-3)) *
			(1 + 2*c.R0) * (1 / (0.2 + c.RhoIn)) * noise
		cost := wall * float64(c.P) / 360
		mem := 0.05 * float64(c.Mx*c.Mx) / 64 * math.Pow(2, float64(c.MaxLevel-3)) /
			math.Sqrt(float64(c.P)) * math.Exp(rng.NormFloat64()*0.02)
		ds.Jobs = append(ds.Jobs, dataset.Job{
			P: c.P, Mx: c.Mx, MaxLevel: c.MaxLevel, R0: c.R0, RhoIn: c.RhoIn,
			WallSec: wall, CostNH: cost, MemMB: mem,
		})
	}
	return ds
}

func replaySpec(name, policy string, seed int64, nInit, maxIter int) CampaignSpec {
	return CampaignSpec{
		Version:       SpecVersion,
		Name:          name,
		Mode:          ModeReplay,
		Policy:        PolicySpec{Name: policy},
		Seed:          seed,
		MaxIterations: maxIter,
		HyperoptEvery: 5,
		Replay:        &ReplaySpec{NInit: nInit, NTest: 30},
	}
}

// TestSweepSmoke is the tiny 2x2 grid `make sweep-smoke` runs under the race
// detector: two policies x two seeds, concurrent workers, per-campaign obs.
func TestSweepSmoke(t *testing.T) {
	obs.Disable()
	reg := obs.NewRegistry()
	obs.Enable(reg, nil)
	defer obs.Disable()

	ds := synthDS(100, 51)
	var specs []CampaignSpec
	for _, policy := range []string{"randuniform", "maxsigma"} {
		for _, seed := range []int64{1, 2} {
			specs = append(specs, replaySpec(fmt.Sprintf("smoke/%s/%d", policy, seed), policy, seed, 6, 3))
		}
	}
	trs, err := SweepReplaySpecs(ds, specs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(trs) != 4 {
		t.Fatalf("got %d trajectories want 4", len(trs))
	}
	for i, tr := range trs {
		if tr == nil || tr.Iterations() != 3 {
			t.Fatalf("campaign %d: trajectory %+v, want 3 iterations", i, tr)
		}
	}
}

// TestSweepNInitPolicyStudy runs the acceptance grid — n_init in {1, 50,
// 100} x the five paper policies — twice with different worker counts and
// requires identical trajectories: sweep output must not depend on
// scheduling.
func TestSweepNInitPolicyStudy(t *testing.T) {
	ds := synthDS(300, 52)
	policies := []string{"randuniform", "maxsigma", "minpred", "randgoodness", "rgma"}
	var specs []CampaignSpec
	for _, nInit := range []int{1, 50, 100} {
		for _, policy := range policies {
			s := replaySpec(fmt.Sprintf("%s/ninit=%d", policy, nInit), policy, int64(40+nInit), nInit, 4)
			s.MemLimitPaperRule = true
			specs = append(specs, s)
		}
	}
	first, err := SweepReplaySpecs(ds, specs, 4)
	if err != nil {
		t.Fatal(err)
	}
	second, err := SweepReplaySpecs(ds, specs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != len(specs) || len(second) != len(specs) {
		t.Fatalf("got %d/%d trajectories want %d", len(first), len(second), len(specs))
	}
	for i := range specs {
		if first[i] == nil {
			t.Fatalf("campaign %s: nil trajectory", specs[i].Name)
		}
		if !reflect.DeepEqual(first[i], second[i]) {
			t.Fatalf("campaign %s: trajectories differ between worker counts", specs[i].Name)
		}
	}
}

// TestSweepIsolatesFailures: one failing or panicking campaign must neither
// abort the sweep nor disturb its siblings, and results stay positional.
func TestSweepIsolatesFailures(t *testing.T) {
	items := []SweepItem{
		{ID: "ok-1", Run: func(*CampaignObs) (any, error) { return 10, nil }},
		{ID: "broken", Run: func(*CampaignObs) (any, error) { return nil, errors.New("policy exploded") }},
		{ID: "panicky", Run: func(*CampaignObs) (any, error) { panic("selection bug") }},
		{ID: "ok-2", Run: func(*CampaignObs) (any, error) { return 20, nil }},
	}
	results, err := Sweep(SweepConfig{Workers: 2, Items: items})
	if err == nil {
		t.Fatal("joined error missing")
	}
	for _, want := range []string{"sweep campaign broken", "policy exploded", "sweep campaign panicky", "panic: selection bug"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("joined error %q missing %q", err, want)
		}
	}
	if results[0].Value != 10 || results[3].Value != 20 {
		t.Fatalf("sibling results disturbed: %+v", results)
	}
	if results[1].Err == nil || results[2].Err == nil {
		t.Fatalf("per-item errors not recorded: %+v", results)
	}
	if results[2].Value != nil {
		t.Fatalf("panicking campaign produced a value: %+v", results[2])
	}
}

func TestSweepEmptyAndSequential(t *testing.T) {
	results, err := Sweep(SweepConfig{})
	if err != nil || len(results) != 0 {
		t.Fatalf("empty sweep: %v %v", results, err)
	}
	// Workers=1 must execute strictly in item order (shared mutable state).
	var order []string
	items := []SweepItem{
		{ID: "a", Run: func(*CampaignObs) (any, error) { order = append(order, "a"); return nil, nil }},
		{ID: "b", Run: func(*CampaignObs) (any, error) { order = append(order, "b"); return nil, nil }},
		{ID: "c", Run: func(*CampaignObs) (any, error) { order = append(order, "c"); return nil, nil }},
	}
	if _, err := Sweep(SweepConfig{Workers: 1, Items: items}); err != nil {
		t.Fatal(err)
	}
	if strings.Join(order, "") != "abc" {
		t.Fatalf("sequential sweep ran out of order: %v", order)
	}
}

// TestCampaignObsNoInterleave runs two campaigns concurrently and checks
// that their labeled per-campaign series stay separable: each campaign's
// iteration counter equals its own trajectory length, and the cum-cost
// gauges carry each campaign's own final value.
func TestCampaignObsNoInterleave(t *testing.T) {
	obs.Disable()
	reg := obs.NewRegistry()
	obs.Enable(reg, nil)
	defer obs.Disable()

	ds := synthDS(140, 53)
	specs := []CampaignSpec{
		replaySpec("camp-a", "randuniform", 3, 10, 12),
		replaySpec("camp-b", "randgoodness", 4, 10, 9),
	}
	trs, err := SweepReplaySpecs(ds, specs, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, spec := range specs {
		iters, ok := reg.CounterValue(obs.Labeled(obs.MetricSweepIterations, obs.LabelCampaign, spec.Name))
		if !ok || iters != int64(trs[i].Iterations()) {
			t.Fatalf("campaign %s: iterations counter = %d (found %v) want %d",
				spec.Name, iters, ok, trs[i].Iterations())
		}
		cc, ok := reg.GaugeValue(obs.Labeled(obs.MetricSweepCumCost, obs.LabelCampaign, spec.Name))
		want := trs[i].CumCost[len(trs[i].CumCost)-1]
		if !ok || cc != want {
			t.Fatalf("campaign %s: cum-cost gauge = %g (found %v) want %g", spec.Name, cc, ok, want)
		}
	}
}
