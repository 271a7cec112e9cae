package gp

import (
	"fmt"
	"math"

	"alamr/internal/mat"
	"alamr/internal/obs"
)

// ScoringCache is a persistent posterior cache over a candidate pool: for
// every live candidate i it stores the cross-kernel row kᵢ = k(xᵢ, X), the
// solve vector vᵢ = L⁻¹kᵢ, the running norm ‖vᵢ‖², and the prior variance
// k(xᵢ, xᵢ). With that state the posterior over the whole pool is
//
//	μᵢ = α·kᵢ + ȳ           (one O(n) dot per candidate)
//	σᵢ² = k(xᵢ,xᵢ) − ‖vᵢ‖²   (O(1) per candidate)
//
// so re-scoring m candidates costs O(m·n) per AL iteration instead of the
// O(m·n²) of calling Predict over the pool (a fresh triangular solve per
// candidate). The cache tracks its GP across the loop's three mutations:
//
//   - Append: every kᵢ gains one entry through the GP's own row evaluator,
//     and every vᵢ gains one entry via mat.Cholesky.BorderSolveStep against
//     the new factor row — O(n) per candidate.
//   - Refit / Fit (new hyperparameters): every stored row is wrong; the
//     cache marks itself stale and the next Scores call rebuilds all
//     candidates in one batched pass.
//   - Candidate removal: O(1) swap-delete of the heavy per-candidate state.
//
// Determinism: the rebuild pass solves each vᵢ with the flat substitution
// (ForwardSolveFlatTo) whose per-row grouping is bitwise identical to
// BorderSolveStep, and ‖vᵢ‖² is accumulated in index order in both paths.
// A cache freshly built at size n therefore holds bit-for-bit the state of
// a cache built at size n₀ < n and extended through n−n₀ appends — the
// property checkpoint resume relies on (the online runtime rebuilds caches
// after replaying the feed log and must continue the trajectory bitwise).
//
// Scores is deliberately not bitwise-equal to Predict: Predict's blocked
// forward solve and its different mean reduction differ from the cache in
// the last ulps. Equivalence tests pin the agreement to ≤1e-12 and the
// policy selections to exact equality on fixed seeds.
//
// A ScoringCache is not safe for concurrent use, matching the sequential
// structure of the AL loop; distinct (GP, cache) pairs are independent.
type ScoringCache struct {
	g *GP

	// Per-candidate state, slot-major: position p of the caller's pool maps
	// to slot order[p]. Swap-delete moves one slot's O(n) payload instead
	// of shifting all of them; the position→slot indirection keeps Scores
	// in pool order.
	xs  [][]float64 // candidate features (private copies)
	ks  [][]float64 // kᵢ = k(xᵢ, X)
	vs  [][]float64 // vᵢ = L⁻¹kᵢ
	v2  []float64   // running ‖vᵢ‖², extended in index order
	kss []float64   // prior variance k(xᵢ, xᵢ)

	order []int // pool position → slot
	stale bool  // hyperparameters changed since the last (re)build

	mu, sigma []float64 // pool-order output buffers, reused across calls
}

// NewScoringCache attaches a posterior cache for the candidate rows of x to
// the fitted GP g. Candidate features are copied; the caller may reuse x.
// The cache registers itself with g — every later Append extends it and
// every Fit/Refit invalidates it — until Close detaches it.
func NewScoringCache(g *GP, x *mat.Dense) *ScoringCache {
	if !g.fitted {
		panic("gp: NewScoringCache before Fit")
	}
	m := x.Rows()
	c := &ScoringCache{
		g:     g,
		xs:    make([][]float64, m),
		ks:    make([][]float64, m),
		vs:    make([][]float64, m),
		v2:    make([]float64, m),
		kss:   make([]float64, m),
		order: make([]int, m),
		stale: true,
	}
	for i := 0; i < m; i++ {
		c.xs[i] = mat.CopyVec(x.Row(i))
		c.order[i] = i
	}
	g.caches = append(g.caches, c)
	return c
}

// Len reports the number of live candidates.
func (c *ScoringCache) Len() int { return len(c.order) }

// Close detaches the cache from its GP; after Close the GP's appends and
// refits no longer spend time maintaining it.
func (c *ScoringCache) Close() {
	for i, o := range c.g.caches {
		if o == c {
			c.g.caches = append(c.g.caches[:i], c.g.caches[i+1:]...)
			break
		}
	}
}

// invalidate marks every stored row stale; called by precompute, i.e.
// whenever hyperparameters (and hence the factor and all kernel rows) may
// have changed.
func (c *ScoringCache) invalidate() {
	c.stale = true
	obs.CacheInvalidations.Inc()
}

// Scores returns the posterior mean and standard deviation for every live
// candidate in pool order. The returned slices are owned by the cache and
// are overwritten by the next call. A stale cache (after Fit/Refit) is
// rebuilt first in one batched pass.
func (c *ScoringCache) Scores() (mu, sigma []float64) {
	if c.stale {
		c.rebuild()
	} else {
		obs.CacheHits.Inc()
	}
	m := len(c.order)
	if cap(c.mu) < m {
		c.mu = make([]float64, m)
		c.sigma = make([]float64, m)
	}
	c.mu, c.sigma = c.mu[:m], c.sigma[:m]
	alpha, yMean := c.g.alpha, c.g.yMean
	n := len(alpha)
	for p, s := range c.order {
		c.mu[p] = mat.DotBlocked(c.ks[s][:n], alpha) + yMean
		variance := c.kss[s] - c.v2[s]
		if variance < 0 {
			variance = 0
		}
		c.sigma[p] = math.Sqrt(variance)
	}
	return c.mu, c.sigma
}

// Remove deletes the candidate at pool position p (the index the caller's
// pool — and hence Scores — uses). The heavy O(n) per-candidate payload is
// swap-deleted in O(1); only the machine-word position index shifts, the
// same cost class as the caller's own pool bookkeeping.
func (c *ScoringCache) Remove(p int) {
	if p < 0 || p >= len(c.order) {
		panic(fmt.Sprintf("gp: ScoringCache.Remove position %d out of range %d", p, len(c.order)))
	}
	s := c.order[p]
	c.order = append(c.order[:p], c.order[p+1:]...)
	last := len(c.xs) - 1
	if s != last {
		c.xs[s], c.ks[s], c.vs[s] = c.xs[last], c.ks[last], c.vs[last]
		c.v2[s], c.kss[s] = c.v2[last], c.kss[last]
		for q, t := range c.order {
			if t == last {
				c.order[q] = s
				break
			}
		}
	}
	c.xs, c.ks, c.vs = c.xs[:last], c.ks[:last], c.vs[:last]
	c.v2, c.kss = c.v2[:last], c.kss[:last]
}

// rebuild recomputes every candidate's cached state against the GP's
// current hyperparameters and factor, one candidate at a time. The flat
// forward solve keeps rebuilt state bitwise identical to incrementally
// extended state (see the type comment).
func (c *ScoringCache) rebuild() {
	obs.CacheRebuilds.Inc()
	g := c.g
	n := g.x.Rows()
	for s := range c.xs {
		c.ks[s] = growVec(c.ks[s], n)
		c.vs[s] = growVec(c.vs[s], n)
		g.rowEval.Eval(c.xs[s], 0, c.ks[s])
		c.v2[s] = g.chol.ForwardSolveFlatTo(c.vs[s], c.ks[s])
		c.kss[s] = g.kern.Eval(c.xs[s], c.xs[s])
	}
	c.stale = false
}

// extendAppend absorbs one Append into every candidate: kᵢ gains the entry
// against the just-appended training row (evaluated through the GP's own
// extended row evaluator, the rebuild code path, so both agree bitwise) and
// vᵢ gains one border-solve step — O(n) per candidate. A stale cache skips
// the work; the pending rebuild covers the new row.
func (c *ScoringCache) extendAppend() {
	if c.stale || len(c.xs) == 0 {
		return
	}
	obs.CacheExtends.Inc()
	g := c.g
	n := g.x.Rows() // post-append size; cached rows have n−1 entries
	var kNew [1]float64
	for s := range c.xs {
		g.rowEval.Eval(c.xs[s], n-1, kNew[:])
		vNew := g.chol.BorderSolveStep(c.vs[s], kNew[0])
		c.ks[s] = append(c.ks[s], kNew[0])
		c.vs[s] = append(c.vs[s], vNew)
		c.v2[s] += vNew * vNew
	}
}

// growVec resizes b to length n, reusing capacity when possible and
// over-allocating on growth so a run of appends amortizes.
func growVec(b []float64, n int) []float64 {
	if cap(b) >= n {
		return b[:n]
	}
	return make([]float64, n, n+n/2+8)
}
