// Package gp implements Gaussian process regression (GPR) with marginal
// likelihood hyperparameter optimization, the surrogate model the paper
// trains incrementally for the cost and memory responses (paper §III).
//
// The model is
//
//	y = f(x) + N(0, σ_n²),   f ~ GP(0, k)
//
// with posterior predictive mean and variance at x_* (paper eq. 2–3)
//
//	μ_* = k_*ᵀ K_y⁻¹ y
//	σ_*² = k_** − k_*ᵀ K_y⁻¹ k_*,   K_y = K + σ_n² I
//
// Hyperparameters (kernel parameters and log σ_n) are chosen by maximizing
// the log marginal likelihood (paper eq. 8–9) with analytic gradients and a
// warm-started multi-restart L-BFGS, mirroring the role scikit-learn 0.18's
// GaussianProcessRegressor plays in the original study.
package gp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"alamr/internal/kernel"
	"alamr/internal/mat"
	"alamr/internal/obs"
	"alamr/internal/optimize"
)

// Config controls fitting.
type Config struct {
	// Noise is the initial noise standard deviation σ_n (default 0.1).
	Noise float64
	// FixedNoise freezes σ_n at its initial value instead of optimizing it.
	FixedNoise bool
	// Restarts is the number of random hyperparameter restarts in addition
	// to the warm start (default 2).
	Restarts int
	// NoOptimize skips hyperparameter optimization entirely and keeps the
	// kernel's current parameters (useful for tests and ablations).
	NoOptimize bool
	// NormalizeY subtracts the training-target mean before fitting and adds
	// it back at prediction time. Recommended for responses with a large
	// offset, such as log-transformed costs.
	NormalizeY bool
	// Seed drives the random restarts. Fits are deterministic given a seed.
	Seed int64
	// MaxIter bounds the L-BFGS iterations per restart (default 100).
	MaxIter int
	// ParamBounds clamps the log-space search region for restarts
	// (default ±5 around 0).
	LowerBound, UpperBound float64
}

func (c *Config) setDefaults() {
	if c.Noise <= 0 {
		c.Noise = 0.1
	}
	if c.Restarts < 0 {
		c.Restarts = 0
	} else if c.Restarts == 0 {
		c.Restarts = 2
	}
	if c.MaxIter <= 0 {
		c.MaxIter = 100
	}
	if c.LowerBound == 0 && c.UpperBound == 0 {
		c.LowerBound, c.UpperBound = -5, 5
	}
}

// GP is a Gaussian process regressor. Create one with New, then call Fit.
type GP struct {
	kern     kernel.Kernel
	cfg      Config
	logNoise float64

	x      *mat.Dense
	y      []float64 // centred targets
	yMean  float64
	chol   *mat.Cholesky
	alpha  []float64
	lml    float64
	fitted bool

	// rowEval is the kernel-row fast path over the current training matrix
	// and hyperparameters: it evaluates a full row of k(x, ·) with hoisted
	// hyperparameter transforms and precomputed squared norms. precompute
	// rebuilds it (hyperparameters may have changed); Append grows it by one
	// row in O(d).
	rowEval kernel.RowEval

	// caches are the attached incremental scoring caches; precompute marks
	// them stale (new hyperparameters invalidate every stored solve) and
	// Append extends them by one border step.
	caches []*ScoringCache

	// meanRows holds the kernel rows of the last PredictMean test set.
	meanRows testRows
}

// testRows caches k(x_i, X) for a fixed test set across PredictMean calls.
// Each Append adds one training row and so one column, which the next call
// fills through rowEval; its Extend keeps the evaluator bitwise-equal to a
// rebuilt one, so a cached row equals a fresh rowEval.Eval row entry for
// entry. precompute drops the columns (cols = 0): new hyperparameters
// change every entry. The row buffers are kept for reuse.
type testRows struct {
	mu   sync.Mutex
	x    *mat.Dense  // private copy of the test set the rows belong to
	rows [][]float64 // rows[i][:cols] = k(x.Row(i), training rows)
	cols int
}

// bind points the cache at xs, keeping the cached columns only when xs
// holds exactly the cached test set (compared bit for bit, O(m·d)).
func (c *testRows) bind(xs *mat.Dense) {
	if c.x != nil && sameBits(c.x, xs) {
		return
	}
	c.x = xs.Clone()
	c.rows = make([][]float64, xs.Rows())
	c.cols = 0
}

// sameBits reports whether a and b have the same shape and bit-identical
// entries.
func sameBits(a, b *mat.Dense) bool {
	ar, ac := a.Dims()
	br, bc := b.Dims()
	if ar != br || ac != bc {
		return false
	}
	for i := 0; i < ar; i++ {
		ra, rb := a.Row(i), b.Row(i)
		for j := range ra {
			if math.Float64bits(ra[j]) != math.Float64bits(rb[j]) {
				return false
			}
		}
	}
	return true
}

// New creates a GP with the given kernel prototype and configuration. The
// kernel is cloned; the caller's copy is never mutated.
func New(k kernel.Kernel, cfg Config) *GP {
	cfg.setDefaults()
	return &GP{
		kern:     k.Clone(),
		cfg:      cfg,
		logNoise: math.Log(cfg.Noise),
	}
}

// Kernel returns the GP's kernel (with fitted hyperparameters after Fit).
// Callers must not mutate it.
func (g *GP) Kernel() kernel.Kernel { return g.kern }

// NoiseStd returns the current noise standard deviation σ_n.
func (g *GP) NoiseStd() float64 { return math.Exp(g.logNoise) }

// LogMarginalLikelihood returns the LML at the fitted hyperparameters.
func (g *GP) LogMarginalLikelihood() float64 {
	if !g.fitted {
		panic("gp: LogMarginalLikelihood before Fit")
	}
	return g.lml
}

// SetRestarts adjusts how many random restarts subsequent hyperparameter
// optimizations perform in addition to the warm start (0 disables them).
func (g *GP) SetRestarts(n int) {
	if n < 0 {
		n = 0
	}
	g.cfg.Restarts = n
}

// NumTrain reports the number of training samples.
func (g *GP) NumTrain() int {
	if g.x == nil {
		return 0
	}
	return g.x.Rows()
}

// Hyperparams returns the full log-space hyperparameter vector
// (kernel params followed by log σ_n).
func (g *GP) Hyperparams() []float64 {
	p := g.kern.Params()
	return append(p, g.logNoise)
}

// SetHyperparams installs a log-space hyperparameter vector of the form
// returned by Hyperparams.
func (g *GP) SetHyperparams(p []float64) {
	want := g.kern.NumParams() + 1
	if len(p) != want {
		panic(fmt.Sprintf("gp: SetHyperparams got %d params, want %d", len(p), want))
	}
	g.kern.SetParams(p[:want-1])
	g.logNoise = p[want-1]
	g.fitted = false
}

// ErrNoData is returned by Fit when the training set is empty.
var ErrNoData = errors.New("gp: empty training set")

// Fit trains the GP on (x, y): optimizes hyperparameters by LML ascent
// (unless cfg.NoOptimize) and precomputes the posterior. The current
// hyperparameters are always used as the warm start, which implements the
// paper's "use old model's parameters as a starting point" refitting note
// (Algorithm 1).
func (g *GP) Fit(x *mat.Dense, y []float64) error {
	if x == nil || x.Rows() == 0 {
		return ErrNoData
	}
	if x.Rows() != len(y) {
		return fmt.Errorf("gp: x has %d rows but y has %d values", x.Rows(), len(y))
	}
	if !mat.AllFinite(y) {
		return errors.New("gp: non-finite training targets")
	}

	g.x = x.Clone()
	g.yMean = 0
	if g.cfg.NormalizeY {
		g.yMean = mat.SumVec(y) / float64(len(y))
	}
	g.y = make([]float64, len(y))
	for i, v := range y {
		g.y[i] = v - g.yMean
	}

	if !g.cfg.NoOptimize && len(y) >= 2 {
		g.optimizeHyperparams()
	}
	return g.precompute()
}

// nlmlObjective builds the negative-LML objective over the log-space
// hyperparameter vector θ = (kernel params..., log σ_n). When noise is
// fixed, the last component is omitted. It is value first (see
// optimize.Objective): each evaluation factors K_y and returns −LML, and
// the returned thunk computes the gradient at the same θ only when the
// optimizer asks for it.
func (g *GP) nlmlObjective() optimize.Objective {
	nk := g.kern.NumParams()
	k := g.kern.Clone()
	lml := newLMLObjective(g.x, g.y, !g.cfg.FixedNoise)
	return func(theta []float64) (float64, func() []float64) {
		k.SetParams(theta[:nk])
		logNoise := g.logNoise
		if !g.cfg.FixedNoise {
			logNoise = theta[nk]
		}
		v, grad, err := lml.eval(k, logNoise)
		if err != nil {
			// Non-PD covariance at these hyperparameters: treat as a cliff.
			dim := len(theta)
			return math.Inf(1), func() []float64 { return make([]float64, dim) }
		}
		return -v, func() []float64 {
			neg := grad()
			for i := range neg {
				neg[i] = -neg[i]
			}
			return neg
		}
	}
}

func (g *GP) optimizeHyperparams() {
	nk := g.kern.NumParams()
	dim := nk
	if !g.cfg.FixedNoise {
		dim++
	}
	warm := make([]float64, dim)
	copy(warm, g.kern.Params())
	if !g.cfg.FixedNoise {
		warm[nk] = g.logNoise
	}

	lower := make([]float64, dim)
	upper := make([]float64, dim)
	for i := range lower {
		lower[i] = g.cfg.LowerBound
		upper[i] = g.cfg.UpperBound
	}
	rng := rand.New(rand.NewSource(g.cfg.Seed))
	res := optimize.MultiStart(g.nlmlObjective(), [][]float64{warm}, optimize.MultiStartConfig{
		Restarts:   g.cfg.Restarts,
		Lower:      lower,
		Upper:      upper,
		LBFGS:      optimize.LBFGSConfig{MaxIter: g.cfg.MaxIter, GradTol: 1e-5},
		FallbackNM: true,
	}, rng)
	if res.X != nil && mat.AllFinite(res.X) && !math.IsInf(res.F, 0) {
		g.kern.SetParams(res.X[:nk])
		if !g.cfg.FixedNoise {
			g.logNoise = res.X[nk]
		}
	}
}

// precompute factorizes K_y and solves for α at the current hyperparameters.
func (g *GP) precompute() error {
	ky := kernel.Gram(g.kern, g.x)
	noise2 := math.Exp(2 * g.logNoise)
	ky.AddDiag(noise2)
	ch, err := mat.NewCholeskyJitter(ky, 1e-10, 1e-4)
	if err != nil {
		return fmt.Errorf("gp: covariance factorization failed: %w", err)
	}
	g.chol = ch
	g.alpha = ch.SolveVec(g.y)
	g.rowEval = kernel.NewRowEval(g.kern, g.x)
	g.meanRows.cols = 0
	n := float64(len(g.y))
	g.lml = -0.5*mat.Dot(g.y, g.alpha) - 0.5*ch.LogDet() - 0.5*n*math.Log(2*math.Pi)
	g.fitted = true
	obs.GPRebuilds.Inc()
	obs.GPTrainRows.Set(n)
	for _, c := range g.caches {
		c.invalidate()
	}
	return nil
}

// Predict returns the posterior mean and standard deviation of the latent
// function at each row of xs. Variances are clamped at zero before the
// square root, the standard guard against roundoff.
func (g *GP) Predict(xs *mat.Dense) (mean, std []float64) {
	m := xs.Rows()
	mean = make([]float64, m)
	std = make([]float64, m)
	g.PredictInto(xs, mean, std)
	return mean, std
}

// PredictInto is Predict writing into caller-owned buffers, the
// zero-allocation form streamed pool scoring loops over (keeps the live
// set at one shard rather than the whole pool). One scratch pair serves
// every row, so the hot path allocates nothing per candidate. Model state
// is read-only here and the scratch is call-local, so any number of
// PredictInto calls may run concurrently on one fitted model (the
// engine's shard lanes do); Fit, Append and Refit must not overlap them.
func (g *GP) PredictInto(xs *mat.Dense, mean, std []float64) {
	if !g.fitted {
		panic("gp: Predict before Fit")
	}
	m := xs.Rows()
	if len(mean) != m || len(std) != m {
		panic(fmt.Sprintf("gp: PredictInto buffers %d/%d for %d rows", len(mean), len(std), m))
	}
	n := g.x.Rows()
	scratch := make([]float64, 2*n)
	ks, v := scratch[:n], scratch[n:]
	for i := 0; i < m; i++ {
		mean[i], std[i] = g.predictOneInto(xs.Row(i), ks, v)
	}
}

// PredictMean returns the posterior mean at each row of xs, bitwise equal to
// Predict's mean without the O(n²) variance solve per point. The kernel
// rows of the last test set are cached: calling again with the same rows
// (for example every AL iteration on a fixed test split) evaluates only the
// columns of training rows appended since, until a Fit or Refit installs
// new hyperparameters. Calls on one model are serialized; like Predict, it
// must not overlap Fit, Append or Refit.
func (g *GP) PredictMean(xs *mat.Dense) []float64 {
	if !g.fitted {
		panic("gp: PredictMean before Fit")
	}
	c := &g.meanRows
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bind(xs)
	n, from := g.x.Rows(), c.cols
	mean := make([]float64, xs.Rows())
	for i := range mean {
		row := c.rows[i]
		if cap(row) < n {
			// Grow with 25% slack: the rows gain one column per Append.
			grown := make([]float64, n, n+n/4+8)
			copy(grown, row[:from])
			row = grown
		}
		row = row[:n]
		g.rowEval.Eval(xs.Row(i), from, row[from:])
		c.rows[i] = row
		mean[i] = g.meanOf(row)
	}
	c.cols = n
	return mean
}

// meanOf is the posterior mean from a test point's kernel row,
// ks = k(x, X): the one mean formula Predict, PredictMean and the treed and
// multi-fidelity models share, so their means agree bitwise.
func (g *GP) meanOf(ks []float64) float64 { return mat.Dot(ks, g.alpha) + g.yMean }

// PredictOne returns the posterior mean and standard deviation at a single
// point.
func (g *GP) PredictOne(x []float64) (mean, std float64) {
	if !g.fitted {
		panic("gp: PredictOne before Fit")
	}
	n := g.x.Rows()
	scratch := make([]float64, 2*n)
	return g.predictOneInto(x, scratch[:n], scratch[n:])
}

// predictOneInto computes one posterior (mean, std) using caller-provided
// scratch: ks and v must each have length NumTrain and are overwritten.
func (g *GP) predictOneInto(x, ks, v []float64) (float64, float64) {
	mean := g.meanOneInto(x, ks)
	// σ² = k** − vᵀv with v = L⁻¹ k*, solved into the caller's scratch.
	g.chol.ForwardSolveVecTo(v, ks)
	variance := g.kern.Eval(x, x) - mat.Dot(v, v)
	if variance < 0 {
		variance = 0
	}
	return mean, math.Sqrt(variance)
}

// meanOneInto returns the posterior mean at x, leaving k(x, X) in ks
// (length NumTrain).
func (g *GP) meanOneInto(x, ks []float64) float64 {
	g.rowEval.Eval(x, 0, ks)
	return g.meanOf(ks)
}

// lmlObjective evaluates the log marginal likelihood of a fixed training
// set at changing hyperparameters, value first. eval assembles K_y, factors
// it, solves α = K_y⁻¹y and returns the LML; the gradient with respect to
// the log-space hyperparameters (kernel params, then log σ_n when withNoise
// is true) comes from a thunk, by the standard identity
//
//	∂LML/∂θ = ½ tr((ααᵀ − K_y⁻¹) ∂K_y/∂θ),
//
// so only evaluations whose gradient is read pay for dK/dθ, the explicit
// K_y⁻¹ and the trace terms. The n×n assembly buffers are reused across
// evaluations, which is why a thunk is valid only until the next eval: a
// stale thunk panics instead of reading another evaluation's state.
type lmlObjective struct {
	x         *mat.Dense
	y         []float64
	withNoise bool

	ky    *mat.Dense   // K_y assembly buffer (Cholesky copies it)
	grads []*mat.Dense // dK/dθ buffers, allocated at the first gradient
	gen   uint64       // evaluations so far; a thunk belongs to one
}

func newLMLObjective(x *mat.Dense, y []float64, withNoise bool) *lmlObjective {
	n := x.Rows()
	return &lmlObjective{x: x, y: y, withNoise: withNoise, ky: mat.NewDense(n, n, nil)}
}

// eval returns the LML at kernel k (its current parameters) and noise
// log σ_n, with the thunk for its gradient. k must keep its parameters
// until the thunk has run. The covariance is assembled through
// kernel.GramGradInto's value-only mode, so the LML equals the one computed
// alongside the gradient bit for bit.
func (o *lmlObjective) eval(k kernel.Kernel, logNoise float64) (float64, func() []float64, error) {
	o.gen++
	gen := o.gen
	n := o.x.Rows()
	kernel.GramGradInto(k, o.x, o.ky, nil)
	noise2 := math.Exp(2 * logNoise)
	o.ky.AddDiag(noise2)
	ch, err := mat.NewCholeskyJitter(o.ky, 1e-10, 1e-6)
	if err != nil {
		return 0, nil, err
	}
	alpha := ch.SolveVec(o.y)
	lml := -0.5*mat.Dot(o.y, alpha) - 0.5*ch.LogDet() - 0.5*float64(n)*math.Log(2*math.Pi)

	grad := func() []float64 {
		if o.gen != gen {
			panic("gp: LML gradient thunk called after a later evaluation")
		}
		np := k.NumParams()
		if o.grads == nil {
			o.grads = make([]*mat.Dense, np)
			for t := range o.grads {
				o.grads[t] = mat.NewDense(n, n, nil)
			}
		}
		// K_y is no longer needed (the factor holds its own copy), so the
		// full assembly may overwrite it with the identical K.
		kernel.GramGradInto(k, o.x, o.ky, o.grads)
		kinv := ch.Inverse()
		dim := np
		if o.withNoise {
			dim++
		}
		out := make([]float64, dim)
		for t := 0; t < np; t++ {
			out[t] = 0.5 * traceInnerDiff(alpha, kinv, o.grads[t])
		}
		if o.withNoise {
			// ∂K_y/∂(log σ_n) = 2 σ_n² I, so the trace reduces to the diagonal.
			var tr float64
			for i := 0; i < n; i++ {
				tr += alpha[i]*alpha[i] - kinv.At(i, i)
			}
			out[np] = 0.5 * tr * 2 * noise2
		}
		return out
	}
	return lml, grad, nil
}

// traceInnerDiff computes tr((ααᵀ − K⁻¹)·D) = αᵀDα − tr(K⁻¹D) without
// forming ααᵀ. The trace term is the Frobenius inner product of K⁻¹ and D,
// evaluated row-parallel with a deterministic block-ordered reduction.
func traceInnerDiff(alpha []float64, kinv, d *mat.Dense) float64 {
	quad := mat.Dot(alpha, d.MulVec(alpha))
	return quad - mat.TraceMulElem(kinv, d)
}
