package optimize

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// eagerFunc is a test objective in the value-and-gradient form.
type eagerFunc func(x []float64) (float64, []float64)

// eager adapts an eagerFunc to Objective by computing the gradient at every
// evaluation, the behaviour of the optimizer before gradients became lazy.
func eager(f eagerFunc) Objective {
	return func(x []float64) (float64, func() []float64) {
		v, g := f(x)
		return v, func() []float64 { return g }
	}
}

// quadratic builds f(x) = Σ wᵢ (xᵢ-cᵢ)², a strictly convex bowl.
func quadratic(w, c []float64) eagerFunc {
	return func(x []float64) (float64, []float64) {
		var f float64
		g := make([]float64, len(x))
		for i := range x {
			d := x[i] - c[i]
			f += w[i] * d * d
			g[i] = 2 * w[i] * d
		}
		return f, g
	}
}

// rosenbrock is the classic banana function, minimum f=0 at (1,1).
func rosenbrock(x []float64) (float64, []float64) {
	a, b := x[0], x[1]
	f := (1-a)*(1-a) + 100*(b-a*a)*(b-a*a)
	g := []float64{
		-2*(1-a) - 400*a*(b-a*a),
		200 * (b - a*a),
	}
	return f, g
}

func TestLBFGSQuadratic(t *testing.T) {
	obj := quadratic([]float64{1, 10, 100}, []float64{3, -2, 0.5})
	res, err := LBFGS(eager(obj), []float64{0, 0, 0}, LBFGSConfig{})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, -2, 0.5}
	for i := range want {
		if math.Abs(res.X[i]-want[i]) > 1e-5 {
			t.Fatalf("X[%d] = %g want %g", i, res.X[i], want[i])
		}
	}
	if res.F > 1e-9 {
		t.Fatalf("F = %g want ~0", res.F)
	}
}

func TestLBFGSRosenbrock(t *testing.T) {
	res, err := LBFGS(eager(rosenbrock), []float64{-1.2, 1}, LBFGSConfig{MaxIter: 500})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-1) > 1e-4 || math.Abs(res.X[1]-1) > 1e-4 {
		t.Fatalf("X = %v want (1,1); f=%g iters=%d", res.X, res.F, res.Iterations)
	}
}

func TestLBFGSAlreadyAtMinimum(t *testing.T) {
	obj := quadratic([]float64{1, 1}, []float64{0, 0})
	res, err := LBFGS(eager(obj), []float64{0, 0}, LBFGSConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("expected immediate convergence at minimum")
	}
	if res.F != 0 {
		t.Fatalf("F = %g want 0", res.F)
	}
}

func TestLBFGSNonFiniteStart(t *testing.T) {
	obj := func(x []float64) (float64, []float64) {
		return math.NaN(), []float64{0}
	}
	if _, err := LBFGS(eager(obj), []float64{1}, LBFGSConfig{}); err == nil {
		t.Fatal("expected error for NaN objective")
	}
}

func TestLBFGSHandlesLogBarrier(t *testing.T) {
	// f(x) = x - log(x): minimum at x=1; non-finite for x<=0, so the line
	// search must shrink past the barrier.
	obj := func(x []float64) (float64, []float64) {
		if x[0] <= 0 {
			return math.Inf(1), []float64{0}
		}
		return x[0] - math.Log(x[0]), []float64{1 - 1/x[0]}
	}
	res, err := LBFGS(eager(obj), []float64{5}, LBFGSConfig{MaxIter: 300})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-1) > 1e-5 {
		t.Fatalf("X = %v want 1", res.X)
	}
}

func TestNelderMeadQuadratic(t *testing.T) {
	f := func(x []float64) float64 {
		return (x[0]-2)*(x[0]-2) + 5*(x[1]+1)*(x[1]+1)
	}
	res := NelderMead(f, []float64{0, 0}, NelderMeadConfig{})
	if math.Abs(res.X[0]-2) > 1e-4 || math.Abs(res.X[1]+1) > 1e-4 {
		t.Fatalf("X = %v want (2,-1)", res.X)
	}
}

func TestNelderMeadRosenbrock(t *testing.T) {
	f := func(x []float64) float64 {
		v, _ := rosenbrock(x)
		return v
	}
	res := NelderMead(f, []float64{-1.2, 1}, NelderMeadConfig{MaxIter: 5000})
	if math.Abs(res.X[0]-1) > 1e-3 || math.Abs(res.X[1]-1) > 1e-3 {
		t.Fatalf("X = %v want (1,1); f=%g", res.X, res.F)
	}
}

func TestNelderMeadNaNTreatedAsInf(t *testing.T) {
	f := func(x []float64) float64 {
		if x[0] < 0 {
			return math.NaN()
		}
		return (x[0] - 1) * (x[0] - 1)
	}
	res := NelderMead(f, []float64{2}, NelderMeadConfig{})
	if math.Abs(res.X[0]-1) > 1e-4 {
		t.Fatalf("X = %v want 1", res.X)
	}
}

func TestMultiStartFindsGlobalBasin(t *testing.T) {
	// Double well: f(x) = (x²-1)² + 0.3x has global minimum near x=-1.
	obj := func(x []float64) (float64, []float64) {
		v := x[0]
		f := (v*v-1)*(v*v-1) + 0.3*v
		g := []float64{4*v*(v*v-1) + 0.3}
		return f, g
	}
	rng := rand.New(rand.NewSource(42))
	// Warm start near the wrong (local) minimum at x≈+1.
	res := MultiStart(eager(obj), [][]float64{{0.9}}, MultiStartConfig{
		Restarts: 20,
		Lower:    []float64{-3},
		Upper:    []float64{3},
	}, rng)
	if res.X[0] > 0 {
		t.Fatalf("X = %v: stuck in local minimum", res.X)
	}
}

func TestMultiStartWarmOnly(t *testing.T) {
	obj := quadratic([]float64{1}, []float64{7})
	res := MultiStart(eager(obj), [][]float64{{0}}, MultiStartConfig{}, nil)
	if math.Abs(res.X[0]-7) > 1e-5 {
		t.Fatalf("X = %v want 7", res.X)
	}
}

func TestMultiStartAllDivergeFallback(t *testing.T) {
	// Objective that is finite at the warm start but whose gradient pushes
	// the line search into failure immediately: constant with zero gradient
	// triggers instant convergence instead — use a cliff.
	obj := func(x []float64) (float64, []float64) {
		return math.Inf(1), []float64{1}
	}
	res := MultiStart(eager(obj), [][]float64{{2}}, MultiStartConfig{}, nil)
	if res.X == nil {
		t.Fatal("MultiStart returned nil X")
	}
	if res.X[0] != 2 {
		t.Fatalf("fallback X = %v want warm start 2", res.X)
	}
}

// Property: L-BFGS on a random convex quadratic recovers the center.
func TestLBFGSQuadraticProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		w := make([]float64, n)
		c := make([]float64, n)
		x0 := make([]float64, n)
		for i := range w {
			w[i] = 0.5 + 4*rng.Float64()
			c[i] = rng.NormFloat64() * 3
			x0[i] = rng.NormFloat64() * 3
		}
		res, err := LBFGS(eager(quadratic(w, c)), x0, LBFGSConfig{MaxIter: 400})
		if err != nil {
			return false
		}
		for i := range c {
			if math.Abs(res.X[i]-c[i]) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: Nelder–Mead never returns a worse value than its starting point.
func TestNelderMeadMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(4)
		c := make([]float64, n)
		x0 := make([]float64, n)
		for i := range c {
			c[i] = rng.NormFloat64()
			x0[i] = rng.NormFloat64()
		}
		fn := func(x []float64) float64 {
			var s float64
			for i := range x {
				d := x[i] - c[i]
				s += d * d
			}
			return s
		}
		res := NelderMead(fn, x0, NelderMeadConfig{MaxIter: 50})
		return res.F <= fn(x0)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkLBFGSRosenbrock(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := LBFGS(eager(rosenbrock), []float64{-1.2, 1}, LBFGSConfig{MaxIter: 500}); err != nil {
			b.Fatal(err)
		}
	}
}
