package engine

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"

	"alamr/internal/dataset"
	"alamr/internal/mat"
)

func batchCands(n int, limitLog float64) *Candidates {
	x := mat.NewDense(n, 2, nil)
	muC := make([]float64, n)
	sigC := make([]float64, n)
	muM := make([]float64, n)
	sigM := make([]float64, n)
	for i := 0; i < n; i++ {
		x.Set(i, 0, float64(i)/float64(n))
		x.Set(i, 1, 0.5)
		muC[i] = float64(i) * 0.1
		sigC[i] = 0.2
		muM[i] = float64(i) * 0.05
		sigM[i] = 0.1
	}
	return &Candidates{X: x, MuCost: muC, SigmaCost: sigC, MuMem: muM, SigmaMem: sigM, MemLimitLog: limitLog}
}

func TestSelectBatchDistinct(t *testing.T) {
	c := batchCands(10, math.Inf(1))
	rng := rand.New(rand.NewSource(1))
	for _, strategy := range []BatchStrategy{BatchIndependent, BatchConstantLiar} {
		picks, err := SelectBatch(RandGoodness{}, c, 4, strategy, rng)
		if err != nil {
			t.Fatal(err)
		}
		if len(picks) != 4 {
			t.Fatalf("%v: picks = %d want 4", strategy, len(picks))
		}
		seen := map[int]bool{}
		for _, p := range picks {
			if p < 0 || p >= 10 || seen[p] {
				t.Fatalf("%v: invalid or duplicate pick %d in %v", strategy, p, picks)
			}
			seen[p] = true
		}
	}
}

func TestSelectBatchClampsToPool(t *testing.T) {
	c := batchCands(3, math.Inf(1))
	picks, err := SelectBatch(MinPred{}, c, 10, BatchIndependent, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if len(picks) != 3 {
		t.Fatalf("picks = %d want 3", len(picks))
	}
}

func TestSelectBatchValidation(t *testing.T) {
	c := batchCands(3, math.Inf(1))
	if _, err := SelectBatch(MinPred{}, c, 0, BatchIndependent, nil); err == nil {
		t.Fatal("q=0 accepted")
	}
	empty := &Candidates{}
	if _, err := SelectBatch(MinPred{}, empty, 1, BatchIndependent, nil); err == nil {
		t.Fatal("empty candidates accepted")
	}
}

func TestSelectBatchDeterministicGreedy(t *testing.T) {
	// MinPred with distinct costs: batch must be the q cheapest, in order.
	c := batchCands(6, math.Inf(1))
	picks, err := SelectBatch(MinPred{}, c, 3, BatchIndependent, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2}
	for i := range want {
		if picks[i] != want[i] {
			t.Fatalf("picks = %v want %v", picks, want)
		}
	}
}

func TestSelectBatchConstantLiarSpreads(t *testing.T) {
	// Two tight clusters of candidates; with MaxSigma + constant liar the
	// second pick should come from the other cluster because the first
	// pick's neighborhood lost its uncertainty.
	x := mat.NewDense(4, 1, []float64{0.0, 0.01, 1.0, 0.99})
	c := &Candidates{
		X:           x,
		MuCost:      []float64{0, 0, 0, 0},
		SigmaCost:   []float64{1.0, 0.99, 0.98, 0.97},
		MuMem:       []float64{0, 0, 0, 0},
		SigmaMem:    []float64{0, 0, 0, 0},
		MemLimitLog: math.Inf(1),
	}
	picks, err := SelectBatch(MaxSigma{}, c, 2, BatchConstantLiar, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	if picks[0] != 0 {
		t.Fatalf("first pick = %d want 0", picks[0])
	}
	if picks[1] != 2 && picks[1] != 3 {
		t.Fatalf("constant liar did not spread: picks = %v", picks)
	}
	// Independent selection would have taken the near-duplicate instead.
	c2 := &Candidates{
		X:           x,
		MuCost:      []float64{0, 0, 0, 0},
		SigmaCost:   []float64{1.0, 0.99, 0.98, 0.97},
		MuMem:       []float64{0, 0, 0, 0},
		SigmaMem:    []float64{0, 0, 0, 0},
		MemLimitLog: math.Inf(1),
	}
	ind, err := SelectBatch(MaxSigma{}, c2, 2, BatchIndependent, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	if ind[1] != 1 {
		t.Fatalf("independent picks = %v, expected the near-duplicate 1", ind)
	}
}

func TestSelectBatchRGMAPartialOnLimit(t *testing.T) {
	// Only one candidate satisfies the limit: batch returns it plus the
	// termination error.
	c := batchCands(4, math.Inf(1))
	c.MemLimitLog = 0.06 // only candidates 0 (0.0) and 1 (0.05) satisfy
	picks, err := SelectBatch(RGMA{}, c, 4, BatchIndependent, rand.New(rand.NewSource(6)))
	if !errors.Is(err, ErrAllExceedLimit) {
		t.Fatalf("err = %v want ErrAllExceedLimit", err)
	}
	if len(picks) != 2 {
		t.Fatalf("partial picks = %v want 2 entries", picks)
	}
}

func TestBatchStrategyString(t *testing.T) {
	if BatchIndependent.String() != "independent" || BatchConstantLiar.String() != "constant-liar" {
		t.Fatal("strategy names")
	}
	if BatchStrategy(9).String() == "" {
		t.Fatal("unknown strategy name empty")
	}
}

func TestRunBatchTrajectoryBookkeeping(t *testing.T) {
	ds := synthDS(120, 60)
	part := smallPartition(t, ds, 10, 40, 16)
	tr, err := RunReplayBatch(ds, part, LoopConfig{
		Policy: RandGoodness{}, MaxIterations: 24, Seed: 7,
	}, 4, BatchConstantLiar)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Iterations() != 24 {
		t.Fatalf("selections = %d want 24", tr.Iterations())
	}
	if tr.Policy != "RandGoodness[q=4,constant-liar]" {
		t.Fatalf("policy label = %q", tr.Policy)
	}
	seen := map[int]bool{}
	for _, idx := range tr.Selected {
		if seen[idx] {
			t.Fatalf("duplicate selection %d", idx)
		}
		seen[idx] = true
	}
	if len(tr.CostRMSE) != 24 || len(tr.CumCost) != 24 {
		t.Fatalf("metric lengths %d/%d", len(tr.CostRMSE), len(tr.CumCost))
	}
	for i := 1; i < 24; i++ {
		if tr.CumCost[i] < tr.CumCost[i-1] {
			t.Fatal("CumCost not monotone")
		}
	}
}

func TestRunBatchTrajectoryQ1MatchesSequentialShape(t *testing.T) {
	ds := synthDS(100, 61)
	part := smallPartition(t, ds, 10, 30, 17)
	tr, err := RunReplayBatch(ds, part, LoopConfig{
		Policy: MinPred{}, MaxIterations: 10, Seed: 9,
	}, 1, BatchIndependent)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := RunReplay(ds, part, LoopConfig{
		Policy: MinPred{}, MaxIterations: 10, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Greedy deterministic policy: identical selections regardless of loop
	// implementation (refit cadence differs slightly, but the first picks
	// before the first refit must agree).
	for i := 0; i < 5; i++ {
		if tr.Selected[i] != seq.Selected[i] {
			t.Fatalf("selection %d: batch %d vs sequential %d", i, tr.Selected[i], seq.Selected[i])
		}
	}
}

func TestRunBatchTrajectoryLargerBatchesCheaperPerModel(t *testing.T) {
	// Larger q means fewer model rebuilds; the run must still learn.
	ds := synthDS(120, 62)
	part := smallPartition(t, ds, 10, 40, 18)
	tr, err := RunReplayBatch(ds, part, LoopConfig{
		Policy: MaxSigma{}, MaxIterations: 40, Seed: 11,
	}, 8, BatchConstantLiar)
	if err != nil {
		t.Fatal(err)
	}
	if tr.CostRMSE[len(tr.CostRMSE)-1] >= tr.InitCostRMSE {
		t.Fatalf("batch run did not learn: %g -> %g", tr.InitCostRMSE, tr.CostRMSE[len(tr.CostRMSE)-1])
	}
}

func TestRunBatchTrajectoryValidation(t *testing.T) {
	ds := synthDS(50, 63)
	part := smallPartition(t, ds, 5, 20, 19)
	if _, err := RunReplayBatch(ds, part, LoopConfig{}, 2, BatchIndependent); err == nil {
		t.Fatal("nil policy accepted")
	}
	if _, err := RunReplayBatch(ds, part, LoopConfig{Policy: MinPred{}}, 0, BatchIndependent); err == nil {
		t.Fatal("q=0 accepted")
	}
}

func TestTrajectoryJSONRoundTrip(t *testing.T) {
	ds := synthDS(80, 64)
	part := smallPartition(t, ds, 8, 25, 20)
	tr, err := RunReplay(ds, part, LoopConfig{Policy: MinPred{}, MaxIterations: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrajectoryJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Policy != tr.Policy || back.Iterations() != tr.Iterations() {
		t.Fatalf("round trip changed trajectory: %+v", back)
	}
	for i := range tr.CostRMSE {
		if back.CostRMSE[i] != tr.CostRMSE[i] {
			t.Fatal("metrics changed in round trip")
		}
	}
	if _, err := ReadTrajectoryJSON(bytes.NewBufferString("nope")); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestRunTrajectoryRejectsBadResponses pins the log-transform guard: a
// non-positive or non-finite response in the training pool is refused as a
// classified dataset.ErrBadResponse instead of feeding NaN to a surrogate.
func TestRunTrajectoryRejectsBadResponses(t *testing.T) {
	ds := synthDS(80, 63)
	part := smallPartition(t, ds, 8, 30, 9)
	ds.Jobs[part.Active[0]].CostNH = math.NaN()
	if _, err := RunReplay(ds, part, LoopConfig{Policy: RandUniform{}, MaxIterations: 5}); !errors.Is(err, dataset.ErrBadResponse) {
		t.Fatalf("NaN cost not classified: %v", err)
	}
	if _, err := RunReplayBatch(ds, part, LoopConfig{Policy: RandUniform{}, MaxIterations: 5}, 2, BatchConstantLiar); !errors.Is(err, dataset.ErrBadResponse) {
		t.Fatalf("batch loop: NaN cost not classified: %v", err)
	}
	ds.Jobs[part.Active[0]].CostNH = 1
	ds.Jobs[part.Init[0]].MemMB = -3
	if _, err := RunReplay(ds, part, LoopConfig{Policy: RandUniform{}, MaxIterations: 5}); !errors.Is(err, dataset.ErrBadResponse) {
		t.Fatalf("negative memory not classified: %v", err)
	}
}
