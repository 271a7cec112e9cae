package gp

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"alamr/internal/kernel"
	"alamr/internal/mat"
)

// smallEqTol pins the small-size equivalence contract: with the
// approximation degrees of freedom saturated (sparse k=n, treed
// leafSize>=n) the scalable surrogates must reproduce the exact GP.
const smallEqTol = 1e-8

// extendTol pins Sherman-Morrison-extended sparse cache state against a
// direct Predict. The extend is algebraically exact but rounds differently
// from a fresh solve, so it is close rather than bitwise; every
// Refit/projection resynchronizes exactly (see SparseScoringCache).
const extendTol = 1e-8

func scaleTrainingSet(rng *rand.Rand, n int) (*mat.Dense, []float64) {
	x := mat.NewDense(n, 2, nil)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		a, b := rng.Float64()*3, rng.Float64()*3
		x.Set(i, 0, a)
		x.Set(i, 1, b)
		y[i] = math.Sin(2*a)*math.Cos(b) + 0.1*a
	}
	return x, y
}

// TestSparseFullInducingMatchesExactTight: with every training point
// inducing, the SoR posterior mean is algebraically the exact GP mean
// everywhere, and the SoR variance coincides with the exact posterior
// variance at the training points themselves.
func TestSparseFullInducingMatchesExactTight(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x, y := scaleTrainingSet(rng, 30)
	cfg := Config{Noise: 0.1, FixedNoise: true, NoOptimize: true, NormalizeY: false}
	sp := NewSparse(kernel.NewRBF(0.6, 1.1), cfg, 30)
	ex := New(kernel.NewRBF(0.6, 1.1), cfg)
	if err := sp.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if err := ex.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if sp.NumInducing() != 30 {
		t.Fatalf("inducing set %d, want all 30", sp.NumInducing())
	}
	probe, _ := scaleTrainingSet(rng, 12)
	ms, _ := sp.Predict(probe)
	me, _ := ex.Predict(probe)
	for i := range ms {
		if math.Abs(ms[i]-me[i]) > smallEqTol {
			t.Fatalf("off-data mean[%d]: sparse %.12g exact %.12g", i, ms[i], me[i])
		}
	}
	// At training points the Nystrom approximation K_nm K_mm^-1 K_mn is
	// exact, so the predictive variance matches too.
	ms, ss := sp.Predict(x)
	me, se := ex.Predict(x)
	for i := range ms {
		if math.Abs(ms[i]-me[i]) > smallEqTol || math.Abs(ss[i]-se[i]) > smallEqTol {
			t.Fatalf("train point %d: sparse (%.12g, %.12g) exact (%.12g, %.12g)",
				i, ms[i], ss[i], me[i], se[i])
		}
	}
}

// TestTreedSingleLeafMatchesExactTight: with leafSize >= n the tree never
// splits, so the treed surrogate is one exact GP and must agree with it.
func TestTreedSingleLeafMatchesExactTight(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x, y := scaleTrainingSet(rng, 40)
	cfg := Config{Noise: 0.05, NoOptimize: true}
	td := NewTreed(kernel.NewRBF(0.6, 1.1), cfg, 64)
	ex := New(kernel.NewRBF(0.6, 1.1), cfg)
	if err := td.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if err := ex.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	probe, _ := scaleTrainingSet(rng, 15)
	mt, st := td.Predict(probe)
	me, se := ex.Predict(probe)
	for i := range mt {
		if math.Abs(mt[i]-me[i]) > smallEqTol || math.Abs(st[i]-se[i]) > smallEqTol {
			t.Fatalf("probe %d: treed (%.12g, %.12g) exact (%.12g, %.12g)",
				i, mt[i], st[i], me[i], se[i])
		}
	}
}

func fitScaleSparse(t *testing.T, rng *rand.Rand, n, m int) *Sparse {
	t.Helper()
	x, y := scaleTrainingSet(rng, n)
	s := NewSparse(kernel.NewRBF(0.7, 1.0), Config{Noise: 0.08, FixedNoise: true, NoOptimize: true}, m)
	if err := s.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSparseCacheRebuildBitwiseVsPredict: a freshly built (or freshly
// invalidated) sparse cache computes each candidate with exactly Predict's
// arithmetic, so the agreement is bitwise, not approximate.
func TestSparseCacheRebuildBitwiseVsPredict(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s := fitScaleSparse(t, rng, 60, 24)
	pool, _ := scaleTrainingSet(rng, 200)
	c := NewSparseScoringCache(s, pool)
	defer c.Close()
	mu, sigma := c.Scores()
	wantMu, wantSigma := s.Predict(pool)
	if !bitwiseEq(mu, wantMu) || !bitwiseEq(sigma, wantSigma) {
		t.Fatal("rebuilt sparse cache is not bitwise-identical to Predict")
	}
}

// TestSparseCacheExtendTracksPredict: across a schedule of appends the
// Sherman-Morrison-extended cache stays within extendTol of direct
// scoring, and a Refit resynchronizes it bitwise.
func TestSparseCacheExtendTracksPredict(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	s := fitScaleSparse(t, rng, 50, 20)
	pool, _ := scaleTrainingSet(rng, 150)
	c := NewSparseScoringCache(s, pool)
	defer c.Close()
	c.Scores() // prime the cache so appends extend rather than rebuild

	for step := 0; step < 12; step++ {
		xs := []float64{rng.Float64() * 3, rng.Float64() * 3}
		if err := s.Append(xs, math.Sin(2*xs[0])*math.Cos(xs[1])); err != nil {
			t.Fatal(err)
		}
		mu, sigma := c.Scores()
		wantMu, wantSigma := s.Predict(pool)
		for i := range mu {
			if math.Abs(mu[i]-wantMu[i]) > extendTol || math.Abs(sigma[i]-wantSigma[i]) > extendTol {
				t.Fatalf("step %d candidate %d: extended (%.12g, %.12g) direct (%.12g, %.12g)",
					step, i, mu[i], sigma[i], wantMu[i], wantSigma[i])
			}
		}
	}

	// Refit reprojects the model and invalidates the cache; the next
	// Scores rebuilds through the Predict-identical path.
	if err := s.Refit(); err != nil {
		t.Fatal(err)
	}
	mu, sigma := c.Scores()
	wantMu, wantSigma := s.Predict(pool)
	if !bitwiseEq(mu, wantMu) || !bitwiseEq(sigma, wantSigma) {
		t.Fatal("post-refit sparse cache is not bitwise-identical to Predict")
	}
}

// TestSparseCacheRemove: swap-delete keeps surviving candidates aligned
// with direct scoring of the surviving pool.
func TestSparseCacheRemove(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := fitScaleSparse(t, rng, 40, 16)
	pool, _ := scaleTrainingSet(rng, 60)
	live := make([][]float64, pool.Rows())
	for i := range live {
		live[i] = append([]float64(nil), pool.Row(i)...)
	}
	c := NewSparseScoringCache(s, pool)
	defer c.Close()
	for _, p := range []int{40, 0, 17, 17, 5} {
		c.Remove(p)
		live = append(live[:p], live[p+1:]...)
		if c.Len() != len(live) {
			t.Fatalf("cache len %d, want %d", c.Len(), len(live))
		}
		mu, sigma := c.Scores()
		wantMu, wantSigma := s.Predict(denseOf(live))
		if !bitwiseEq(mu, wantMu) || !bitwiseEq(sigma, wantSigma) {
			t.Fatal("post-remove sparse cache diverged from Predict over survivors")
		}
	}
}

// TestTreedCacheMatchesPredict: the per-leaf-routed cache reproduces
// Treed.Predict over the pool within the exact-cache tolerance (per-leaf
// ScoringCaches group the flat solve differently from PredictOne).
func TestTreedCacheMatchesPredict(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	x, y := scaleTrainingSet(rng, 120)
	td := NewTreed(kernel.NewRBF(0.6, 1.0), Config{Noise: 0.05, NoOptimize: true}, 24)
	if err := td.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	pool, _ := scaleTrainingSet(rng, 180)
	c := NewTreedScoringCache(td, pool)
	defer c.Close()
	mu, sigma := c.Scores()
	wantMu, wantSigma := td.Predict(pool)
	for i := range mu {
		if math.Abs(mu[i]-wantMu[i]) > scoringTol || math.Abs(sigma[i]-wantSigma[i]) > scoringTol {
			t.Fatalf("candidate %d: cached (%.17g, %.17g) Predict (%.17g, %.17g)",
				i, mu[i], sigma[i], wantMu[i], wantSigma[i])
		}
	}
}

// TestTreedCacheExtendMatchesRebuildBitwise: an incrementally maintained
// treed cache — extended through appends, re-routed through resplits,
// compacted through removals — is bitwise-identical to a cache built fresh
// against the final model and pool. This inherits the exact-GP cache's
// extend==rebuild contract leaf by leaf.
func TestTreedCacheExtendMatchesRebuildBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	x, y := scaleTrainingSet(rng, 90)
	td := NewTreed(kernel.NewRBF(0.6, 1.0), Config{Noise: 0.05, NoOptimize: true}, 16)
	if err := td.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	pool, _ := scaleTrainingSet(rng, 140)
	live := make([][]float64, pool.Rows())
	for i := range live {
		live[i] = append([]float64(nil), pool.Row(i)...)
	}
	c := NewTreedScoringCache(td, pool)
	defer c.Close()
	c.Scores()

	// Enough appends to force at least one leaf past rebalance*leafSize.
	for step := 0; step < 40; step++ {
		xs := []float64{rng.Float64() * 3, rng.Float64() * 3}
		if err := td.Append(xs, math.Sin(2*xs[0])*math.Cos(xs[1])); err != nil {
			t.Fatal(err)
		}
		if step%7 == 3 {
			p := rng.Intn(len(live))
			c.Remove(p)
			live = append(live[:p], live[p+1:]...)
		}
		mu, sigma := c.Scores()
		fresh := NewTreedScoringCache(td, denseOf(live))
		wantMu, wantSigma := fresh.Scores()
		if !bitwiseEq(mu, wantMu) || !bitwiseEq(sigma, wantSigma) {
			fresh.Close()
			t.Fatalf("step %d: incrementally maintained treed cache diverged from fresh build", step)
		}
		fresh.Close()
	}
}

// TestPoolCacheFactory: NewPoolCache routes each surrogate family to its
// cache implementation and panics, naming the type, on a model outside the
// closed set.
func TestPoolCacheFactory(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	x, y := scaleTrainingSet(rng, 30)
	pool, _ := scaleTrainingSet(rng, 10)
	cfg := Config{Noise: 0.05, NoOptimize: true}

	ex := New(kernel.NewRBF(0.5, 1), cfg)
	if err := ex.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if _, ok := NewPoolCache(ex, pool).(*ScoringCache); !ok {
		t.Fatal("exact GP did not get a ScoringCache")
	}

	sp := NewSparse(kernel.NewRBF(0.5, 1), cfg, 12)
	if err := sp.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if _, ok := NewPoolCache(sp, pool).(*SparseScoringCache); !ok {
		t.Fatal("sparse model did not get a SparseScoringCache")
	}

	td := NewTreed(kernel.NewRBF(0.5, 1), cfg, 16)
	if err := td.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if _, ok := NewPoolCache(td, pool).(*TreedScoringCache); !ok {
		t.Fatal("treed model did not get a TreedScoringCache")
	}

	type foreign struct{ *GP }
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "gp.foreign") {
			t.Fatalf("foreign model type: got panic %v, want one naming gp.foreign", r)
		}
	}()
	NewPoolCache(foreign{ex}, pool)
}
