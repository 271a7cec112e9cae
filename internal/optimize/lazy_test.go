package optimize

import (
	"math"
	"math/rand"
	"testing"
)

// counter wraps an eagerFunc as a lazy Objective that records, for every
// evaluation, whether its gradient was requested. Like the GP objective, its
// thunks are valid only until the next evaluation and panic when stale.
type counter struct {
	f      eagerFunc
	xs     [][]float64 // evaluated points, in call order
	fs     []float64   // their values
	gradAt []bool      // gradAt[i]: evaluation i's gradient was requested
}

func (c *counter) obj() Objective {
	return func(x []float64) (float64, func() []float64) {
		v, g := c.f(x)
		i := len(c.xs)
		c.xs = append(c.xs, append([]float64(nil), x...))
		c.fs = append(c.fs, v)
		c.gradAt = append(c.gradAt, false)
		return v, func() []float64 {
			if len(c.xs) != i+1 {
				panic("optimize test: stale gradient thunk")
			}
			c.gradAt[i] = true
			return g
		}
	}
}

func (c *counter) grads() int {
	n := 0
	for _, b := range c.gradAt {
		if b {
			n++
		}
	}
	return n
}

// wrongGrad reports the negated gradient of a convex bowl, so every
// "descent" direction climbs and the line search fails: the path that hands
// MultiStart over to Nelder–Mead.
func wrongGrad(x []float64) (float64, []float64) {
	d := x[0] - 1
	return d*d + 0.5*x[1]*x[1], []float64{-2 * d, -x[1]}
}

func doubleWell(x []float64) (float64, []float64) {
	v := x[0]
	return (v*v-1)*(v*v-1) + 0.3*v, []float64{4*v*(v*v-1) + 0.3}
}

func logBarrier(x []float64) (float64, []float64) {
	if x[0] <= 0 {
		return math.Inf(1), []float64{0}
	}
	return x[0] - math.Log(x[0]), []float64{1 - 1/x[0]}
}

// optCase runs one optimizer configuration against an Objective.
type optCase struct {
	name string
	f    eagerFunc
	run  func(Objective) (Result, error)
	// Result of the optimizer before gradients became lazy (eager
	// Objective), recorded as float64 bit patterns on linux/amd64.
	wantX               []uint64
	wantF               uint64
	wantIter, wantEvals int
}

func optCases() []optCase {
	cliff := func(x []float64) (float64, []float64) { return math.Inf(1), []float64{1} }
	return []optCase{
		{"lbfgs/quadratic", quadratic([]float64{1, 10, 100}, []float64{3, -2, 0.5}),
			func(o Objective) (Result, error) { return LBFGS(o, []float64{0, 0, 0}, LBFGSConfig{}) },
			[]uint64{0x4008000000cb4c8d, 0xc0000000003f3754, 0x3fdfffffffed871a}, 0x3c93fa27145b6294, 17, 17},
		{"lbfgs/rosenbrock", rosenbrock,
			func(o Objective) (Result, error) { return LBFGS(o, []float64{-1.2, 1}, LBFGSConfig{MaxIter: 500}) },
			[]uint64{0x3fefffffffc804fd, 0x3fefffffff53aeaf}, 0x3c766d0792a5fd34, 38, 52},
		{"lbfgs/barrier", logBarrier,
			func(o Objective) (Result, error) { return LBFGS(o, []float64{5}, LBFGSConfig{MaxIter: 300}) },
			[]uint64{0x3ff0000001812cf0}, 0x3ff0000000000000, 7, 15},
		{"lbfgs/line-search-fails", wrongGrad,
			func(o Objective) (Result, error) { return LBFGS(o, []float64{3, 2}, LBFGSConfig{}) },
			[]uint64{0x4008000000000000, 0x4000000000000000}, 0x4018000000000000, 1, 42},
		{"multistart/double-well", doubleWell,
			func(o Objective) (Result, error) {
				return MultiStart(o, [][]float64{{0.9}}, MultiStartConfig{
					Restarts: 20, Lower: []float64{-3}, Upper: []float64{3},
				}, rand.New(rand.NewSource(42))), nil
			},
			[]uint64{0xbff091bafc60de98}, 0xbfd38c23e93c9b6e, 7, 162},
		{"multistart/nelder-mead-fallback", wrongGrad,
			func(o Objective) (Result, error) {
				return MultiStart(o, [][]float64{{3, 2}}, MultiStartConfig{
					Restarts: 2, Lower: []float64{-2, -2}, Upper: []float64{2, 2}, FallbackNM: true,
				}, rand.New(rand.NewSource(7))), nil
			},
			[]uint64{0x3feffffffffffb28, 0xbd3044217cdd462c}, 0x3a99876ca2d4bf82, 96, 570},
		{"multistart/all-diverge", cliff,
			func(o Objective) (Result, error) {
				return MultiStart(o, [][]float64{{2}}, MultiStartConfig{}, nil), nil
			},
			[]uint64{0x4000000000000000}, 0x7ff0000000000000, 0, 1},
	}
}

func sameResult(a, b Result) bool {
	if len(a.X) != len(b.X) || math.Float64bits(a.F) != math.Float64bits(b.F) ||
		a.Iterations != b.Iterations || a.Evals != b.Evals || a.Converged != b.Converged {
		return false
	}
	for i := range a.X {
		if math.Float64bits(a.X[i]) != math.Float64bits(b.X[i]) {
			return false
		}
	}
	return true
}

// TestLazyGradientMatchesEager pins that requesting gradients on demand
// changes no optimizer decision: on every case the lazy Objective returns
// the Result of the eager adapter bit for bit, and both equal the Result
// the optimizer returned before gradients became lazy.
func TestLazyGradientMatchesEager(t *testing.T) {
	for _, tc := range optCases() {
		t.Run(tc.name, func(t *testing.T) {
			want, wantErr := tc.run(eager(tc.f))
			c := &counter{f: tc.f}
			got, gotErr := tc.run(c.obj())
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("error eager=%v lazy=%v", wantErr, gotErr)
			}
			if !sameResult(got, want) {
				t.Fatalf("lazy %+v != eager %+v", got, want)
			}
			if len(got.X) != len(tc.wantX) || got.Iterations != tc.wantIter || got.Evals != tc.wantEvals ||
				math.Float64bits(got.F) != tc.wantF {
				t.Fatalf("result %+v differs from the recorded eager result", got)
			}
			for i, b := range tc.wantX {
				if math.Float64bits(got.X[i]) != b {
					t.Fatalf("X[%d] = %#x, recorded %#x", i, math.Float64bits(got.X[i]), b)
				}
			}
			if c.grads() > len(c.xs) {
				t.Fatalf("%d gradients for %d evaluations", c.grads(), len(c.xs))
			}
		})
	}
}

// TestLineSearchSkipsRejectedGradients drives the strong-Wolfe search on
// f(x) = x² from x = 1 with an overlong first step: every trial whose value
// fails the sufficient-decrease test must be rejected without a gradient,
// and only the accepted trial may ask for one.
func TestLineSearchSkipsRejectedGradients(t *testing.T) {
	c := &counter{f: quadratic([]float64{1}, []float64{0})}
	x, dir := []float64{1}, []float64{-2}
	const f0, d0, c1 = 1.0, -4.0, 1e-4
	_, _, step, evals, err := wolfeLineSearch(c.obj(), x, dir, f0, []float64{2}, d0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if evals != len(c.xs) || evals < 2 {
		t.Fatalf("evals = %d, recorded %d", evals, len(c.xs))
	}
	for i, xt := range c.xs {
		a := (xt[0] - x[0]) / dir[0]
		rejected := c.fs[i] > f0+c1*a*d0
		if rejected && c.gradAt[i] {
			t.Errorf("trial %d (step %g, f=%g) failed sufficient decrease but its gradient was computed", i, a, c.fs[i])
		}
		if !rejected && !c.gradAt[i] {
			t.Errorf("trial %d (step %g) passed sufficient decrease but its gradient was never read", i, a)
		}
	}
	if got := c.grads(); got != 1 {
		t.Fatalf("%d gradients requested, want 1 (the accepted step %g)", got, step)
	}
}

// TestNelderMeadRequestsNoGradient runs MultiStart on an objective whose
// gradient defeats the line search: every point evaluated after L-BFGS gives
// up belongs to the Nelder–Mead fallback, which must read values only.
func TestNelderMeadRequestsNoGradient(t *testing.T) {
	x0 := []float64{3, 2}
	lb := &counter{f: wrongGrad}
	if _, err := LBFGS(lb.obj(), x0, LBFGSConfig{}); err == nil {
		t.Fatal("expected the line search to fail")
	}
	c := &counter{f: wrongGrad}
	res := MultiStart(c.obj(), [][]float64{x0}, MultiStartConfig{FallbackNM: true}, nil)
	if res.F > 1e-8 {
		t.Fatalf("fallback did not converge: %+v", res)
	}
	nLBFGS := len(lb.xs)
	if len(c.xs) <= nLBFGS {
		t.Fatalf("%d evaluations, L-BFGS alone used %d: no fallback ran", len(c.xs), nLBFGS)
	}
	for i := nLBFGS; i < len(c.xs); i++ {
		if c.gradAt[i] {
			t.Fatalf("Nelder–Mead evaluation %d requested a gradient", i-nLBFGS)
		}
	}
	// The cliff objective: L-BFGS stops at a non-finite start and MultiStart
	// falls back to the warm start, all without a single gradient.
	cl := &counter{f: func(x []float64) (float64, []float64) { return math.Inf(1), []float64{1} }}
	MultiStart(cl.obj(), [][]float64{{2}}, MultiStartConfig{FallbackNM: true}, nil)
	if cl.grads() != 0 {
		t.Fatalf("%d gradients requested on a non-finite objective", cl.grads())
	}
}
