package gp

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"alamr/internal/kernel"
	"alamr/internal/mat"
)

func gridX(lo, hi float64, n int) *mat.Dense {
	x := mat.NewDense(n, 1, nil)
	for i := 0; i < n; i++ {
		x.Set(i, 0, lo+(hi-lo)*float64(i)/float64(n-1))
	}
	return x
}

func TestFitEmptyErrors(t *testing.T) {
	g := New(kernel.NewRBF(1, 1), Config{})
	if err := g.Fit(nil, nil); !errors.Is(err, ErrNoData) {
		t.Fatalf("err = %v want ErrNoData", err)
	}
}

func TestFitShapeMismatch(t *testing.T) {
	g := New(kernel.NewRBF(1, 1), Config{})
	if err := g.Fit(gridX(0, 1, 4), []float64{1, 2}); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestFitNonFiniteTargets(t *testing.T) {
	g := New(kernel.NewRBF(1, 1), Config{})
	if err := g.Fit(gridX(0, 1, 2), []float64{1, math.NaN()}); err == nil {
		t.Fatal("expected error for NaN target")
	}
}

func TestPredictBeforeFitPanics(t *testing.T) {
	g := New(kernel.NewRBF(1, 1), Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.Predict(gridX(0, 1, 2))
}

func TestInterpolatesNoiselessData(t *testing.T) {
	// With tiny fixed noise and no optimization, GPR must interpolate.
	x := gridX(0, 1, 6)
	y := make([]float64, 6)
	for i := range y {
		y[i] = math.Sin(3 * x.At(i, 0))
	}
	g := New(kernel.NewRBF(0.5, 1), Config{Noise: 1e-5, FixedNoise: true, NoOptimize: true})
	if err := g.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	mean, std := g.Predict(x)
	for i := range y {
		if math.Abs(mean[i]-y[i]) > 1e-3 {
			t.Fatalf("mean[%d] = %g want %g", i, mean[i], y[i])
		}
		if std[i] > 1e-2 {
			t.Fatalf("std[%d] = %g, expected near zero at training points", i, std[i])
		}
	}
}

func TestPredictionRevertsToPriorFarAway(t *testing.T) {
	x := gridX(0, 1, 5)
	y := []float64{5, 5.1, 4.9, 5.05, 5}
	g := New(kernel.NewRBF(0.3, 1), Config{Noise: 0.05, FixedNoise: true, NoOptimize: true, NormalizeY: true})
	if err := g.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	// Far from data: mean reverts to the training mean, std to ~σ_f.
	mean, std := g.PredictOne([]float64{100})
	if math.Abs(mean-5.01) > 0.1 {
		t.Fatalf("far mean = %g want ~5.01", mean)
	}
	if math.Abs(std-1) > 0.05 {
		t.Fatalf("far std = %g want ~1 (prior σ_f)", std)
	}
}

func TestUncertaintyShrinksWithData(t *testing.T) {
	probe := []float64{0.35}
	cfg := Config{Noise: 0.01, FixedNoise: true, NoOptimize: true}
	f := func(v float64) float64 { return math.Sin(5 * v) }

	build := func(n int) float64 {
		x := gridX(0, 1, n)
		y := make([]float64, n)
		for i := range y {
			y[i] = f(x.At(i, 0))
		}
		g := New(kernel.NewRBF(0.3, 1), cfg)
		if err := g.Fit(x, y); err != nil {
			t.Fatal(err)
		}
		_, std := g.PredictOne(probe)
		return std
	}
	s3, s10, s30 := build(3), build(10), build(30)
	if !(s30 <= s10 && s10 <= s3) {
		t.Fatalf("std not shrinking: %g, %g, %g", s3, s10, s30)
	}
}

func TestHyperparamOptimizationImprovesLML(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 25
	x := gridX(0, 4, n)
	y := make([]float64, n)
	for i := range y {
		y[i] = math.Sin(2*x.At(i, 0)) + 0.05*rng.NormFloat64()
	}
	// Deliberately bad initial hyperparameters.
	fixed := New(kernel.NewRBF(5, 0.1), Config{Noise: 1, NoOptimize: true})
	if err := fixed.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	opt := New(kernel.NewRBF(5, 0.1), Config{Noise: 1, Seed: 2})
	if err := opt.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if opt.LogMarginalLikelihood() <= fixed.LogMarginalLikelihood() {
		t.Fatalf("optimized LML %g not better than fixed %g",
			opt.LogMarginalLikelihood(), fixed.LogMarginalLikelihood())
	}
	// The optimized model should track the signal closely.
	xs := gridX(0.1, 3.9, 20)
	mean, _ := opt.Predict(xs)
	for i := range mean {
		want := math.Sin(2 * xs.At(i, 0))
		if math.Abs(mean[i]-want) > 0.25 {
			t.Fatalf("prediction at %g = %g want ~%g", xs.At(i, 0), mean[i], want)
		}
	}
}

func TestLMLGradientFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n, d := 12, 2
	x := mat.NewDense(n, d, nil)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			x.Set(i, j, rng.Float64())
		}
		y[i] = rng.NormFloat64()
	}
	k := kernel.NewRBF(0.8, 1.2)
	logNoise := math.Log(0.3)
	o := newLMLObjective(x, y, true)
	lml0, gradFn, err := o.eval(k, logNoise)
	if err != nil {
		t.Fatal(err)
	}
	grad := gradFn()
	const h = 1e-6
	// Kernel parameter derivatives.
	p0 := k.Params()
	for tIdx := 0; tIdx < k.NumParams(); tIdx++ {
		p := mat.CopyVec(p0)
		p[tIdx] += h
		k.SetParams(p)
		lp, _, err := o.eval(k, logNoise)
		if err != nil {
			t.Fatal(err)
		}
		p[tIdx] -= 2 * h
		k.SetParams(p)
		lm, _, err := o.eval(k, logNoise)
		if err != nil {
			t.Fatal(err)
		}
		k.SetParams(p0)
		fd := (lp - lm) / (2 * h)
		if math.Abs(fd-grad[tIdx]) > 1e-4*math.Max(1, math.Abs(fd)) {
			t.Fatalf("kernel grad[%d] = %g, fd = %g (lml=%g)", tIdx, grad[tIdx], fd, lml0)
		}
	}
	// Noise derivative.
	lp, _, _ := o.eval(k, logNoise+h)
	lm, _, _ := o.eval(k, logNoise-h)
	fd := (lp - lm) / (2 * h)
	if math.Abs(fd-grad[k.NumParams()]) > 1e-4*math.Max(1, math.Abs(fd)) {
		t.Fatalf("noise grad = %g, fd = %g", grad[k.NumParams()], fd)
	}
}

func TestHandlesDuplicateRows(t *testing.T) {
	// Repeated measurements (the dataset's 75 repeats) must not break the
	// factorization.
	x := mat.NewDense(6, 1, []float64{0.5, 0.5, 0.5, 1, 1, 2})
	y := []float64{1.0, 1.1, 0.9, 2.0, 2.1, 3.0}
	g := New(kernel.NewRBF(1, 1), Config{Noise: 0.1, Seed: 4})
	if err := g.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	mean, std := g.PredictOne([]float64{0.5})
	if math.Abs(mean-1.0) > 0.3 {
		t.Fatalf("mean at duplicate = %g want ~1.0", mean)
	}
	if math.IsNaN(std) {
		t.Fatal("NaN std at duplicate")
	}
}

func TestSingleSampleFit(t *testing.T) {
	// n_init = 1 is a first-class scenario in the paper.
	x := mat.NewDense(1, 2, []float64{0.5, 0.5})
	g := New(kernel.NewRBF(1, 1), Config{Noise: 0.1, NormalizeY: true})
	if err := g.Fit(x, []float64{3}); err != nil {
		t.Fatal(err)
	}
	mean, _ := g.PredictOne([]float64{0.5, 0.5})
	if math.Abs(mean-3) > 0.5 {
		t.Fatalf("mean = %g want ~3", mean)
	}
	if g.NumTrain() != 1 {
		t.Fatalf("NumTrain = %d", g.NumTrain())
	}
}

func TestWarmStartRefit(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 20
	x := gridX(0, 2, n)
	y := make([]float64, n)
	for i := range y {
		y[i] = math.Cos(3*x.At(i, 0)) + 0.02*rng.NormFloat64()
	}
	g := New(kernel.NewRBF(1, 1), Config{Noise: 0.1, Seed: 6})
	if err := g.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	p1 := g.Hyperparams()
	// Refit with one more point: warm start keeps hyperparameters nearby.
	x2 := gridX(0, 2.1, n+1)
	y2 := make([]float64, n+1)
	for i := range y2 {
		y2[i] = math.Cos(3*x2.At(i, 0)) + 0.02*rng.NormFloat64()
	}
	g.cfg.Restarts = 0 // pure warm start for the incremental refit
	if err := g.Fit(x2, y2); err != nil {
		t.Fatal(err)
	}
	p2 := g.Hyperparams()
	for i := range p1 {
		if math.Abs(p1[i]-p2[i]) > 2 {
			t.Fatalf("hyperparams jumped: %v -> %v", p1, p2)
		}
	}
}

func TestHyperparamsRoundTrip(t *testing.T) {
	g := New(kernel.NewRBF(1, 1), Config{})
	p := g.Hyperparams()
	p[0] = 0.5
	g.SetHyperparams(p)
	if g.Hyperparams()[0] != 0.5 {
		t.Fatal("SetHyperparams did not stick")
	}
}

func TestSetHyperparamsWrongLenPanics(t *testing.T) {
	g := New(kernel.NewRBF(1, 1), Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.SetHyperparams([]float64{1})
}

func TestDeterminismAcrossFits(t *testing.T) {
	x := gridX(0, 1, 15)
	y := make([]float64, 15)
	for i := range y {
		y[i] = math.Sin(6 * x.At(i, 0))
	}
	run := func() []float64 {
		g := New(kernel.NewRBF(1, 1), Config{Noise: 0.1, Seed: 7})
		if err := g.Fit(x, y); err != nil {
			t.Fatal(err)
		}
		m, _ := g.Predict(gridX(0, 1, 5))
		return m
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic fit: %v vs %v", a, b)
		}
	}
}

func TestMaternKernelGP(t *testing.T) {
	x := gridX(0, 1, 12)
	y := make([]float64, 12)
	for i := range y {
		y[i] = x.At(i, 0) * x.At(i, 0)
	}
	g := New(kernel.NewMatern(2.5, 0.5, 1), Config{Noise: 0.01, Seed: 8})
	if err := g.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	mean, _ := g.PredictOne([]float64{0.5})
	if math.Abs(mean-0.25) > 0.05 {
		t.Fatalf("Matern GP mean = %g want ~0.25", mean)
	}
}

// Property: the posterior mean at a training input lies within a few noise
// standard deviations of the observed target.
func TestPosteriorNearTrainingTargetsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(10)
		x := mat.NewDense(n, 1, nil)
		y := make([]float64, n)
		for i := 0; i < n; i++ {
			x.Set(i, 0, float64(i)+rng.Float64()*0.5)
			y[i] = rng.NormFloat64()
		}
		g := New(kernel.NewRBF(1, 1), Config{Noise: 0.1, FixedNoise: true, NoOptimize: true})
		if err := g.Fit(x, y); err != nil {
			return false
		}
		mean, _ := g.Predict(x)
		for i := range y {
			if math.Abs(mean[i]-y[i]) > 1.0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: predictive std is non-negative and bounded by ~σ_f for the
// stationary prior.
func TestStdBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		x := mat.NewDense(n, 2, nil)
		y := make([]float64, n)
		for i := 0; i < n; i++ {
			x.Set(i, 0, rng.Float64())
			x.Set(i, 1, rng.Float64())
			y[i] = rng.NormFloat64()
		}
		g := New(kernel.NewRBF(0.5, 2), Config{Noise: 0.1, FixedNoise: true, NoOptimize: true})
		if err := g.Fit(x, y); err != nil {
			return false
		}
		probe := mat.NewDense(1, 2, []float64{rng.Float64() * 3, rng.Float64() * 3})
		_, std := g.Predict(probe)
		return std[0] >= 0 && std[0] <= 2+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
