package gp

import (
	"math"
	"math/rand"
	"testing"

	"alamr/internal/kernel"
	"alamr/internal/mat"
)

func TestAppendMatchesFullRefit(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 15
	x := mat.NewDense(n, 2, nil)
	y := make([]float64, n)
	fn := func(a, b float64) float64 { return math.Sin(3*a) + b*b }
	for i := 0; i < n; i++ {
		x.Set(i, 0, rng.Float64())
		x.Set(i, 1, rng.Float64())
		y[i] = fn(x.At(i, 0), x.At(i, 1))
	}

	// Incremental model: fit on the first 10, append 5.
	inc := New(kernel.NewRBF(0.5, 1), Config{Noise: 0.05, FixedNoise: true, NoOptimize: true, NormalizeY: false})
	x10 := mat.NewDense(10, 2, nil)
	for i := 0; i < 10; i++ {
		copy(x10.Row(i), x.Row(i))
	}
	if err := inc.Fit(x10, y[:10]); err != nil {
		t.Fatal(err)
	}
	for i := 10; i < n; i++ {
		if err := inc.Append(x.Row(i), y[i]); err != nil {
			t.Fatal(err)
		}
	}

	// Batch model on all 15 with the same hyperparameters.
	batch := New(kernel.NewRBF(0.5, 1), Config{Noise: 0.05, FixedNoise: true, NoOptimize: true, NormalizeY: false})
	if err := batch.Fit(x, y); err != nil {
		t.Fatal(err)
	}

	probe := mat.NewDense(8, 2, nil)
	for i := 0; i < 8; i++ {
		probe.Set(i, 0, rng.Float64())
		probe.Set(i, 1, rng.Float64())
	}
	mi, si := inc.Predict(probe)
	mb, sb := batch.Predict(probe)
	for i := range mi {
		if math.Abs(mi[i]-mb[i]) > 1e-8 {
			t.Fatalf("mean[%d]: incremental %g vs batch %g", i, mi[i], mb[i])
		}
		if math.Abs(si[i]-sb[i]) > 1e-8 {
			t.Fatalf("std[%d]: incremental %g vs batch %g", i, si[i], sb[i])
		}
	}
	if math.Abs(inc.LogMarginalLikelihood()-batch.LogMarginalLikelihood()) > 1e-8 {
		t.Fatalf("LML: %g vs %g", inc.LogMarginalLikelihood(), batch.LogMarginalLikelihood())
	}
	if inc.NumTrain() != 15 {
		t.Fatalf("NumTrain = %d", inc.NumTrain())
	}
}

func TestAppendValidation(t *testing.T) {
	g := New(kernel.NewRBF(1, 1), Config{})
	if err := g.Append([]float64{1}, 1); err == nil {
		t.Fatal("Append before Fit accepted")
	}
	x := mat.NewDense(2, 1, []float64{0, 1})
	if err := g.Fit(x, []float64{0, 1}); err != nil {
		t.Fatal(err)
	}
	if err := g.Append([]float64{1, 2}, 1); err == nil {
		t.Fatal("wrong dim accepted")
	}
	if err := g.Append([]float64{1}, math.NaN()); err == nil {
		t.Fatal("NaN target accepted")
	}
}

func TestAppendDuplicatePointStable(t *testing.T) {
	g := New(kernel.NewRBF(1, 1), Config{Noise: 0.1, FixedNoise: true, NoOptimize: true})
	x := mat.NewDense(3, 1, []float64{0, 0.5, 1})
	if err := g.Fit(x, []float64{0, 1, 0}); err != nil {
		t.Fatal(err)
	}
	// Append the same input several times — near-singular border.
	for i := 0; i < 4; i++ {
		if err := g.Append([]float64{0.5}, 1.02); err != nil {
			t.Fatal(err)
		}
	}
	mean, std := g.PredictOne([]float64{0.5})
	if math.IsNaN(mean) || math.IsNaN(std) {
		t.Fatal("NaN after duplicate appends")
	}
	if math.Abs(mean-1) > 0.2 {
		t.Fatalf("mean at duplicate = %g want ~1", mean)
	}
}

func TestRefitAfterAppendImprovesHyperparams(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := New(kernel.NewRBF(3, 0.2), Config{Noise: 0.5, Seed: 3})
	x := mat.NewDense(5, 1, nil)
	y := make([]float64, 5)
	for i := 0; i < 5; i++ {
		x.Set(i, 0, float64(i)/5)
		y[i] = math.Sin(6 * x.At(i, 0))
	}
	if err := g.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	for i := 5; i < 25; i++ {
		v := rng.Float64()
		if err := g.Append([]float64{v}, math.Sin(6*v)); err != nil {
			t.Fatal(err)
		}
	}
	before := g.LogMarginalLikelihood()
	if err := g.Refit(); err != nil {
		t.Fatal(err)
	}
	if g.LogMarginalLikelihood() < before-1e-9 {
		t.Fatalf("Refit decreased LML: %g -> %g", before, g.LogMarginalLikelihood())
	}
}

func TestTrainingData(t *testing.T) {
	g := New(kernel.NewRBF(1, 1), Config{NormalizeY: true, NoOptimize: true})
	if x, y := g.TrainingData(); x != nil || y != nil {
		t.Fatal("TrainingData before Fit should be nil")
	}
	x := mat.NewDense(2, 1, []float64{0, 1})
	if err := g.Fit(x, []float64{10, 12}); err != nil {
		t.Fatal(err)
	}
	if err := g.Append([]float64{0.5}, 11); err != nil {
		t.Fatal(err)
	}
	xt, yt := g.TrainingData()
	if xt.Rows() != 3 || len(yt) != 3 {
		t.Fatal("TrainingData sizes")
	}
	// Targets come back uncentred.
	if math.Abs(yt[0]-10) > 1e-12 || math.Abs(yt[2]-11) > 1e-12 {
		t.Fatalf("uncentred targets wrong: %v", yt)
	}
}
