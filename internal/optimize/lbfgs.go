// Package optimize provides the unconstrained minimizers used for Gaussian
// process hyperparameter fitting: a limited-memory BFGS with a strong-Wolfe
// line search, a derivative-free Nelder–Mead simplex method, and a
// multi-start driver that combines warm starts with random restarts.
//
// All routines minimize; callers maximizing a log marginal likelihood pass
// its negation.
package optimize

import (
	"errors"
	"math"

	"alamr/internal/mat"
)

// Objective evaluates a function at x, value first: it returns f(x) and a
// thunk that computes the gradient at the same x on demand. Minimizers call
// the thunk only where they read the gradient (an accepted line-search
// trial, the starting point), so trial points rejected on their value alone
// never pay for a gradient.
//
// The thunk is valid only until the next call of the objective; an
// implementation may reuse buffers across evaluations and should panic when
// a stale thunk is called. The gradient it returns must be a fresh slice
// (callers retain it across iterations).
type Objective func(x []float64) (f float64, grad func() []float64)

// Func evaluates a function value only (for derivative-free methods).
type Func func(x []float64) float64

// Result reports the outcome of an optimization run.
type Result struct {
	X          []float64 // best point found
	F          float64   // objective value at X
	Iterations int       // outer iterations performed
	Evals      int       // objective evaluations
	Converged  bool      // whether the tolerance test passed
}

// LBFGSConfig controls the L-BFGS minimizer. The zero value selects
// reasonable defaults via (c *LBFGSConfig) setDefaults.
type LBFGSConfig struct {
	Memory   int     // history pairs to retain (default 8)
	MaxIter  int     // maximum outer iterations (default 200)
	GradTol  float64 // stop when the sup-norm of the gradient falls below (default 1e-6)
	FuncTol  float64 // stop on relative objective change below (default 1e-10)
	StepInit float64 // initial step for the very first line search (default 1)
}

func (c *LBFGSConfig) setDefaults() {
	if c.Memory <= 0 {
		c.Memory = 8
	}
	if c.MaxIter <= 0 {
		c.MaxIter = 200
	}
	if c.GradTol <= 0 {
		c.GradTol = 1e-6
	}
	if c.FuncTol <= 0 {
		c.FuncTol = 1e-10
	}
	if c.StepInit <= 0 {
		c.StepInit = 1
	}
}

// ErrLineSearchFailed indicates the strong-Wolfe search could not find an
// acceptable step; the best point seen so far is still returned in Result.
var ErrLineSearchFailed = errors.New("optimize: line search failed")

var errNotFiniteStart = errors.New("optimize: objective not finite at the starting point")

// LBFGS minimizes obj starting from x0.
//
// The implementation follows Nocedal & Wright (Numerical Optimization,
// 2nd ed.): two-loop recursion for the search direction, strong-Wolfe line
// search (c1=1e-4, c2=0.9), and history pairs accepted only when the
// curvature condition sᵀy > 0 holds.
func LBFGS(obj Objective, x0 []float64, cfg LBFGSConfig) (Result, error) {
	cfg.setDefaults()
	n := len(x0)
	x := mat.CopyVec(x0)
	f, grad := obj(x)
	evals := 1
	res := Result{X: mat.CopyVec(x), F: f, Evals: evals}
	if !isFinite(f) {
		return res, errNotFiniteStart
	}
	g := grad()
	if !mat.AllFinite(g) {
		return res, errNotFiniteStart
	}

	type pair struct {
		s, y []float64
		rho  float64
	}
	var hist []pair
	dir := make([]float64, n)
	alphaBuf := make([]float64, cfg.Memory)

	for iter := 0; iter < cfg.MaxIter; iter++ {
		res.Iterations = iter + 1
		if supNorm(g) < cfg.GradTol {
			res.Converged = true
			break
		}

		// Two-loop recursion: dir = -H·g.
		copy(dir, g)
		for i := len(hist) - 1; i >= 0; i-- {
			h := hist[i]
			alphaBuf[i] = h.rho * mat.Dot(h.s, dir)
			mat.AxpyTo(dir, -alphaBuf[i], h.y, dir)
		}
		if len(hist) > 0 {
			last := hist[len(hist)-1]
			gamma := mat.Dot(last.s, last.y) / mat.Dot(last.y, last.y)
			mat.ScaleVec(gamma, dir)
		}
		for i := 0; i < len(hist); i++ {
			h := hist[i]
			beta := h.rho * mat.Dot(h.y, dir)
			mat.AxpyTo(dir, alphaBuf[i]-beta, h.s, dir)
		}
		mat.ScaleVec(-1, dir)

		d0 := mat.Dot(g, dir)
		if d0 >= 0 {
			// Not a descent direction (stale curvature); reset to steepest
			// descent.
			hist = hist[:0]
			copy(dir, g)
			mat.ScaleVec(-1, dir)
			d0 = -mat.Dot(g, g)
			if d0 == 0 {
				res.Converged = true
				break
			}
		}

		step := 1.0
		if iter == 0 {
			step = math.Min(cfg.StepInit, 1/math.Max(supNorm(g), 1e-12))
		}
		fNew, gNew, stepTaken, nEval, lsErr := wolfeLineSearch(obj, x, dir, f, g, d0, step)
		evals += nEval
		res.Evals = evals
		if lsErr != nil {
			res.X, res.F = mat.CopyVec(x), f
			return res, ErrLineSearchFailed
		}

		xNew := make([]float64, n)
		mat.AxpyTo(xNew, stepTaken, dir, x)

		s := mat.SubVec(xNew, x)
		y := mat.SubVec(gNew, g)
		if sy := mat.Dot(s, y); sy > 1e-12*mat.Norm2(s)*mat.Norm2(y) {
			if len(hist) == cfg.Memory {
				hist = hist[1:]
			}
			hist = append(hist, pair{s: s, y: y, rho: 1 / sy})
		}

		fPrev := f
		x, f, g = xNew, fNew, gNew
		res.X, res.F = mat.CopyVec(x), f
		if math.Abs(fPrev-f) <= cfg.FuncTol*(math.Abs(f)+1e-15) {
			res.Converged = true
			break
		}
	}
	res.X, res.F = mat.CopyVec(x), f
	return res, nil
}

// wolfeLineSearch finds a step satisfying the strong Wolfe conditions along
// dir from x, given f0=f(x), g0=∇f(x) and the directional derivative d0<0.
// It implements the bracket/zoom scheme of Nocedal & Wright, Algorithm 3.5/3.6.
// A trial's gradient is requested only once its value has passed the
// sufficient-decrease test (or when it is returned), so rejected trials cost
// one function value each.
func wolfeLineSearch(obj Objective, x, dir []float64, f0 float64, g0 []float64, d0, step float64) (f float64, g []float64, alpha float64, evals int, err error) {
	const (
		c1       = 1e-4
		c2       = 0.9
		maxIter  = 40
		alphaMax = 1e10
	)
	xt := make([]float64, len(x))
	eval := func(a float64) (float64, func() []float64) {
		mat.AxpyTo(xt, a, dir, x)
		evals++
		return obj(xt)
	}

	alphaPrev, fPrev := 0.0, f0
	a := step
	for i := 0; i < maxIter; i++ {
		fa, grad := eval(a)
		if !isFinite(fa) {
			// Overshot into a non-finite region: shrink hard.
			a = 0.5 * (alphaPrev + a)
			continue
		}
		if fa > f0+c1*a*d0 || (i > 0 && fa >= fPrev) {
			fz, gz, az, zerr := zoom(eval, f0, d0, dir, alphaPrev, a, fPrev)
			return fz, gz, az, evals, zerr
		}
		ga := grad()
		da := mat.Dot(ga, dir)
		if math.Abs(da) <= -c2*d0 {
			return fa, ga, a, evals, nil
		}
		if da >= 0 {
			fz, gz, az, zerr := zoom(eval, f0, d0, dir, a, alphaPrev, fa)
			return fz, gz, az, evals, zerr
		}
		alphaPrev, fPrev = a, fa
		a *= 2
		if a > alphaMax {
			break
		}
	}
	return f0, g0, 0, evals, ErrLineSearchFailed
}

// zoom narrows a bracketing interval [lo,hi] until a strong-Wolfe step is
// found. Like the bracketing phase, it reads a trial's gradient only after
// the trial has passed the sufficient-decrease test.
func zoom(eval func(float64) (float64, func() []float64), f0, d0 float64, dir []float64, lo, hi, fLo float64) (float64, []float64, float64, error) {
	const (
		c1      = 1e-4
		c2      = 0.9
		maxIter = 40
	)
	for i := 0; i < maxIter; i++ {
		a := 0.5 * (lo + hi)
		fa, grad := eval(a)
		var ga []float64
		if fa > f0+c1*a*d0 || fa >= fLo {
			hi = a
		} else {
			ga = grad()
			da := mat.Dot(ga, dir)
			if math.Abs(da) <= -c2*d0 {
				return fa, ga, a, nil
			}
			if da*(hi-lo) >= 0 {
				hi = lo
			}
			lo, fLo = a, fa
		}
		if math.Abs(hi-lo) < 1e-14*(math.Abs(lo)+1) {
			if fa <= f0+c1*a*d0 {
				if ga == nil {
					ga = grad()
				}
				return fa, ga, a, nil
			}
			break
		}
	}
	return 0, nil, 0, ErrLineSearchFailed
}

func supNorm(x []float64) float64 {
	var m float64
	for _, v := range x {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
