package gp

import (
	"math/rand"
	"testing"

	"alamr/internal/kernel"
	"alamr/internal/mat"
)

var gpBenchSizes = []struct {
	name string
	n    int
}{
	{"50", 50},
	{"200", 200},
	{"600", 600},
	{"1920", 1920},
}

func benchTraining(n, d int) (*mat.Dense, []float64) {
	rng := rand.New(rand.NewSource(int64(n)))
	x := mat.NewDense(n, d, nil)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		row := x.Row(i)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		y[i] = row[0]*row[0] + 0.1*rng.NormFloat64()
	}
	return x, y
}

// BenchmarkFitNoOpt measures Fit with hyperparameter optimization off:
// kernel-matrix assembly + Cholesky factorization + the alpha solve. This is
// the acceptance-criteria benchmark at n=600.
func BenchmarkFitNoOpt(b *testing.B) {
	for _, bs := range gpBenchSizes {
		if testing.Short() && bs.n > 600 {
			continue
		}
		b.Run(bs.name, func(b *testing.B) {
			x, y := benchTraining(bs.n, 2)
			g := New(kernel.NewRBF(1, 1), Config{NoOptimize: true, Seed: 1})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := g.Fit(x, y); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFitLMLGradient isolates one LML+gradient evaluation, the unit of
// work inside every L-BFGS iteration of hyperparameter optimization.
func BenchmarkFitLMLGradient(b *testing.B) {
	for _, bs := range gpBenchSizes {
		if bs.n > 600 {
			continue
		}
		b.Run(bs.name, func(b *testing.B) {
			x, y := benchTraining(bs.n, 2)
			k := kernel.NewRBF(1, 1)
			o := newLMLObjective(x, y, true)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, grad, err := o.eval(k, -1)
				if err != nil {
					b.Fatal(err)
				}
				grad()
			}
		})
	}
}

func BenchmarkPredict(b *testing.B) {
	for _, bs := range gpBenchSizes {
		if bs.n > 600 {
			continue
		}
		b.Run(bs.name, func(b *testing.B) {
			x, y := benchTraining(bs.n, 2)
			g := New(kernel.NewRBF(1, 1), Config{NoOptimize: true, Seed: 1})
			if err := g.Fit(x, y); err != nil {
				b.Fatal(err)
			}
			xs, _ := benchTraining(256, 2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Predict(xs)
			}
		})
	}
}

// BenchmarkAppend measures absorbing one sample into a fitted model of size
// n, the per-iteration fast path of Algorithm 1.
func BenchmarkAppend(b *testing.B) {
	for _, bs := range gpBenchSizes {
		if bs.n > 600 {
			continue
		}
		b.Run(bs.name, func(b *testing.B) {
			x, y := benchTraining(bs.n, 2)
			g := New(kernel.NewRBF(1, 1), Config{NoOptimize: true, Seed: 1})
			if err := g.Fit(x, y); err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(9))
			pt := []float64{rng.NormFloat64(), rng.NormFloat64()}
			b.ResetTimer()
			// Rebuild the model after bursts of 64 appends so the measured
			// size stays ~n regardless of b.N (otherwise the model grows
			// with the iteration count and the cost drifts quadratically).
			appended := 0
			for i := 0; i < b.N; i++ {
				if appended == 64 {
					b.StopTimer()
					g = New(kernel.NewRBF(1, 1), Config{NoOptimize: true, Seed: 1})
					if err := g.Fit(x, y); err != nil {
						b.Fatal(err)
					}
					appended = 0
					b.StartTimer()
				}
				if err := g.Append(pt, 1.5); err != nil {
					b.Fatal(err)
				}
				appended++
			}
		})
	}
}

// BenchmarkAppendGrowth measures a burst of appends from n to n+64, the
// pattern an AL trajectory actually executes between refits; it is the
// benchmark for the amortized-growth satellite fix.
func BenchmarkAppendGrowth(b *testing.B) {
	for _, bs := range gpBenchSizes {
		if bs.n > 600 {
			continue
		}
		b.Run(bs.name, func(b *testing.B) {
			x, y := benchTraining(bs.n, 2)
			g := New(kernel.NewRBF(1, 1), Config{NoOptimize: true, Seed: 1})
			if err := g.Fit(x, y); err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(10))
			pts := make([][]float64, 64)
			for i := range pts {
				pts[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				gi := New(kernel.NewRBF(1, 1), Config{NoOptimize: true, Seed: 1})
				if err := gi.Fit(x, y); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for _, p := range pts {
					if err := gi.Append(p, 1.5); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
