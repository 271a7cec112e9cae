package gp

import (
	"math/rand"
	"sync"
	"testing"

	"alamr/internal/kernel"
	"alamr/internal/mat"
)

// predictFixtures fits one model per family on the same synthetic data.
func predictFixtures(t *testing.T, n int) map[string]Model {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	x := mat.NewDense(n, 3, nil)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < 3; j++ {
			x.Set(i, j, rng.Float64()*2)
		}
		y[i] = x.Row(i)[0] - 0.5*x.Row(i)[1]*x.Row(i)[2] + 0.1*rng.NormFloat64()
	}
	cfg := Config{Noise: 0.1, NoOptimize: true}
	out := map[string]Model{
		"exact":  New(kernel.NewRBF(0.8, 1.1), cfg),
		"sparse": NewSparse(kernel.NewRBF(0.8, 1.1), cfg, 24),
		"treed":  NewTreed(kernel.NewRBF(0.8, 1.1), cfg, 32),
	}
	for name, m := range out {
		if err := m.Fit(x, y); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	return out
}

func predictPool(seed int64, m int) *mat.Dense {
	rng := rand.New(rand.NewSource(seed))
	xs := mat.NewDense(m, 3, nil)
	for i := 0; i < m; i++ {
		for j := 0; j < 3; j++ {
			xs.Set(i, j, rng.Float64()*2)
		}
	}
	return xs
}

// TestPredictIntoConcurrent pins the concurrency contract the engine's
// shard lanes rely on: many goroutines may call PredictInto on one fitted
// model at once (model state is read-only, scratch is call-local). Runs
// under -race via the race make target.
func TestPredictIntoConcurrent(t *testing.T) {
	models := predictFixtures(t, 90)
	xs := predictPool(33, 192)
	m := xs.Rows()
	for name, model := range models {
		want := make([]float64, 2*m)
		model.PredictInto(xs, want[:m], want[m:])
		const lanes = 8
		got := make([][]float64, lanes)
		var wg sync.WaitGroup
		for l := 0; l < lanes; l++ {
			wg.Add(1)
			go func(l int) {
				defer wg.Done()
				buf := make([]float64, 2*m)
				model.PredictInto(xs, buf[:m], buf[m:])
				got[l] = buf
			}(l)
		}
		wg.Wait()
		for l := 0; l < lanes; l++ {
			if !bitwiseEq(got[l], want) {
				t.Fatalf("%s: concurrent PredictInto lane %d diverges from a lone call", name, l)
			}
		}
	}
}

// TestTreedPredictRangeAllocs: treed batch prediction must not allocate
// per candidate — the shared scratch regrows only when a larger leaf shows
// up, so a whole shard costs a handful of allocations, not O(rows).
func TestTreedPredictRangeAllocs(t *testing.T) {
	model := predictFixtures(t, 300)["treed"].(*Treed)
	xs := predictPool(34, 512)
	mean := make([]float64, xs.Rows())
	std := make([]float64, xs.Rows())
	allocs := testing.AllocsPerRun(5, func() {
		model.PredictInto(xs, mean, std)
	})
	if allocs > 16 {
		t.Fatalf("treed PredictInto allocates %.0f times per 512-row batch, want O(leaf growth) <= 16", allocs)
	}
}
