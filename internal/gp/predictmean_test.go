package gp

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"alamr/internal/kernel"
	"alamr/internal/mat"
)

// meanFixture is one surrogate family with its training set, a held-out
// test set and a stream of observations to Append.
type meanFixture struct {
	model   Model
	x       *mat.Dense
	y       []float64
	test    *mat.Dense
	stream  *mat.Dense
	streamY []float64
}

// meanFixtures builds one unfitted model per family over 3-column rows
// (the multi-fidelity model reads its dial from column 2). Hyperparameters
// are optimized, so Refit installs new ones.
func meanFixtures(t *testing.T) map[string]*meanFixture {
	t.Helper()
	cfg := Config{Noise: 0.1, NormalizeY: true, Seed: 1, MaxIter: 15}
	split := func(x *mat.Dense, y []float64, nTrain, nStream int) (*mat.Dense, []float64, *mat.Dense, []float64, *mat.Dense) {
		rows := func(lo, hi int) *mat.Dense {
			d := mat.NewDense(hi-lo, x.Cols(), nil)
			for i := lo; i < hi; i++ {
				copy(d.Row(i-lo), x.Row(i))
			}
			return d
		}
		n := x.Rows()
		return rows(0, nTrain), y[:nTrain], rows(nTrain, nTrain+nStream), y[nTrain : nTrain+nStream], rows(nTrain+nStream, n)
	}
	out := map[string]*meanFixture{}
	rng := rand.New(rand.NewSource(41))
	x := mat.NewDense(130, 3, nil)
	y := make([]float64, 130)
	for i := range y {
		for j := 0; j < 3; j++ {
			x.Set(i, j, rng.Float64()*2)
		}
		y[i] = x.At(i, 0) - 0.5*x.At(i, 1)*x.At(i, 2) + 0.1*rng.NormFloat64()
	}
	models := map[string]Model{
		"exact":  New(kernel.NewRBF(0.8, 1.1), cfg),
		"sparse": NewSparse(kernel.NewRBF(0.8, 1.1), cfg, 16),
		"treed":  NewTreed(kernel.NewRBF(0.8, 1.1), cfg, 16),
	}
	for name, m := range models {
		f := &meanFixture{model: m}
		f.x, f.y, f.stream, f.streamY, f.test = split(x, y, 50, 12)
		out[name] = f
	}
	ladder := []float64{0.25, 1}
	mx, my := multiFidData(rand.New(rand.NewSource(42)), 70, 60, ladder)
	// Interleave the levels so the stream and the test set hold both.
	perm := rand.New(rand.NewSource(43)).Perm(mx.Rows())
	px := mat.NewDense(mx.Rows(), 3, nil)
	py := make([]float64, len(my))
	for i, p := range perm {
		copy(px.Row(i), mx.Row(p))
		py[i] = my[p]
	}
	f := &meanFixture{model: newTestMultiFid(t, ladder, nil, cfg)}
	f.x, f.y, f.stream, f.streamY, f.test = split(px, py, 50, 12)
	out["multifid"] = f
	return out
}

// checkMean asserts PredictMean equals Predict's mean bit for bit and
// returns it.
func checkMean(t *testing.T, tag string, m Model, xs *mat.Dense) []float64 {
	t.Helper()
	want, _ := m.Predict(xs)
	got := m.PredictMean(xs)
	if !bitwiseEq(got, want) {
		t.Fatalf("%s: PredictMean differs from Predict's mean", tag)
	}
	return got
}

// TestPredictMeanBitwise pins PredictMean to Predict's mean for every
// family after Fit, after Appends one at a time (the exact GP extends its
// cached test rows by one column each), after a burst of Appends between
// calls, after Refit (the cache is dropped) and after Appends on the
// refitted model — at 1, 2 and 4 workers, which must also agree with each
// other.
func TestPredictMeanBitwise(t *testing.T) {
	var ref map[string][][]float64
	for _, workers := range []int{1, 2, 4} {
		got := map[string][][]float64{}
		withWorkers(workers, func() {
			for name, f := range meanFixtures(t) {
				m := f.model
				record := func(step string) {
					got[name] = append(got[name], checkMean(t, name+" "+step, m, f.test))
				}
				if err := m.Fit(f.x, f.y); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				record("fit")
				for i := 0; i < 5; i++ {
					if err := m.Append(f.stream.Row(i), f.streamY[i]); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					record("append")
				}
				for i := 5; i < 8; i++ {
					if err := m.Append(f.stream.Row(i), f.streamY[i]); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
				}
				record("append burst")
				if err := m.Refit(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				record("refit")
				for i := 8; i < f.stream.Rows(); i++ {
					if err := m.Append(f.stream.Row(i), f.streamY[i]); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
				}
				record("append after refit")
			}
		})
		if ref == nil {
			ref = got
			continue
		}
		for name, curves := range got {
			for i := range curves {
				if !bitwiseEq(curves[i], ref[name][i]) {
					t.Fatalf("%s step %d: PredictMean at %d workers differs from 1 worker", name, i, workers)
				}
			}
		}
	}
}

// TestPredictMeanCachedRows checks the exact GP's test-row cache: rows
// cover every training row after each call, calls on a different test set
// rebind it, and a test set mutated in place is recognised by content, not
// by pointer.
func TestPredictMeanCachedRows(t *testing.T) {
	f := meanFixtures(t)["exact"]
	g := f.model.(*GP)
	if err := g.Fit(f.x, f.y); err != nil {
		t.Fatal(err)
	}
	checkMean(t, "fit", g, f.test)
	if g.meanRows.cols != g.NumTrain() {
		t.Fatalf("cache covers %d columns, want %d", g.meanRows.cols, g.NumTrain())
	}
	for i := 0; i < 3; i++ {
		if err := g.Append(f.stream.Row(i), f.streamY[i]); err != nil {
			t.Fatal(err)
		}
	}
	checkMean(t, "append", g, f.test)
	if g.meanRows.cols != g.NumTrain() {
		t.Fatalf("cache covers %d columns after appends, want %d", g.meanRows.cols, g.NumTrain())
	}
	other := f.stream
	checkMean(t, "other test set", g, other)
	checkMean(t, "back to the first set", g, f.test)
	f.test.Set(0, 1, f.test.At(0, 1)+0.25)
	checkMean(t, "mutated in place", g, f.test)
	if err := g.Refit(); err != nil {
		t.Fatal(err)
	}
	if g.meanRows.cols != 0 {
		t.Fatal("Refit left cached test rows of the old hyperparameters")
	}
	checkMean(t, "refit", g, f.test)
}

// TestPredictMeanConcurrent calls PredictMean on one exact GP from several
// goroutines at once, alternating two test sets so the cache rebinds while
// others wait on it. Every result must equal Predict's mean. Runs under
// -race via the race make target.
func TestPredictMeanConcurrent(t *testing.T) {
	f := meanFixtures(t)["exact"]
	g := f.model.(*GP)
	if err := g.Fit(f.x, f.y); err != nil {
		t.Fatal(err)
	}
	sets := []*mat.Dense{f.test, f.stream}
	want := make([][]float64, len(sets))
	for i, xs := range sets {
		want[i], _ = g.Predict(xs)
	}
	const lanes = 6
	var wg sync.WaitGroup
	errs := make(chan string, lanes)
	for l := 0; l < lanes; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			for r := 0; r < 4; r++ {
				s := (l + r) % len(sets)
				if !bitwiseEq(g.PredictMean(sets[s]), want[s]) {
					errs <- fmt.Sprintf("lane %d round %d: PredictMean differs from Predict's mean", l, r)
					return
				}
			}
		}(l)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
