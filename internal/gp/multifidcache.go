package gp

import (
	"fmt"
	"math"

	"alamr/internal/mat"
)

// FidelityScorer is the extra scoring surface a multi-fidelity pool cache
// exposes beyond PoolCache: the per-candidate top-fidelity
// information gain that the cost-per-information acquisition divides by
// predicted cost.
type FidelityScorer interface {
	// TopInfoGains returns w_l²·σ_δl²(x) for every live candidate in pool
	// order; the slice is owned by the implementation.
	TopInfoGains() []float64
}

var (
	_ PoolCache      = (*MultiFidCache)(nil)
	_ FidelityScorer = (*MultiFidCache)(nil)
)

// MultiFidCache is the incremental pool-scoring cache for the MultiFid
// surrogate: one ordinary ScoringCache per fitted ladder level, all over
// the same stripped candidate points, recombined per candidate with the
// live inter-level scales,
//
//	μ_l = ρ_l·μ_{l−1} + μ_δl,   σ_l² = ρ_l²·σ_{l−1}² + σ_δl².
//
// Each per-level sub-cache registers with its level's δ-GP directly, so an
// Append extends exactly the appended level's rows and a Refit invalidates
// each level as it refits — the single-fidelity incremental-scoring
// contract, inherited per level. Because ScoringCache state rebuilt at size
// n is bitwise the state extended append-by-append, and the recombination
// is plain index-ordered arithmetic, the whole multi-fidelity cache scores
// bitwise-identically across checkpoint resume.
//
// Levels that gain their first observation mid-campaign (their δ-GP appears
// at Append time) pick up a sub-cache lazily on the next Scores call; until
// then they contribute zero mean and the kernel prototype's prior variance,
// matching MultiFid.Predict.
type MultiFidCache struct {
	m *MultiFid

	xs     [][]float64 // pool position → stripped candidate point
	levels []int       // pool position → ladder level

	subs  []*ScoringCache // per ladder level; nil while that level is unfitted
	subGP []*GP           // the δ-GP each sub was built against

	mu, sigma, gains []float64 // pool-order output buffers
}

// NewMultiFidCache attaches a per-level incremental posterior cache for the
// candidate rows of x to the fitted multi-fidelity model m. Every row's
// fidelity dial must be on the ladder. Candidate features are copied.
func NewMultiFidCache(m *MultiFid, x *mat.Dense) *MultiFidCache {
	if !m.fitted {
		panic("gp: NewMultiFidCache before Fit")
	}
	mm := x.Rows()
	c := &MultiFidCache{
		m:      m,
		xs:     make([][]float64, mm),
		levels: make([]int, mm),
		subs:   make([]*ScoringCache, m.NumLevels()),
		subGP:  make([]*GP, m.NumLevels()),
	}
	for i := 0; i < mm; i++ {
		row := x.Row(i)
		l, err := m.Level(row)
		if err != nil {
			panic(fmt.Sprintf("gp: NewMultiFidCache row %d: %v", i, err))
		}
		c.levels[i] = l
		c.xs[i] = m.strip(row)
	}
	c.sync()
	return c
}

// sync reconciles the per-level sub-caches with the model's current level
// GPs: a level whose δ-GP appeared (or was replaced wholesale by a full
// Fit) gets a fresh ScoringCache over the live candidate points.
func (c *MultiFidCache) sync() {
	for j := range c.subs {
		g := c.m.levels[j]
		if c.subGP[j] == g {
			continue
		}
		if c.subs[j] != nil {
			c.subs[j].Close()
			c.subs[j] = nil
		}
		c.subGP[j] = g
		if g != nil {
			c.subs[j] = NewScoringCache(g, rowsDenseAllowEmpty(c.xs))
		}
	}
}

// Len reports the number of live candidates.
func (c *MultiFidCache) Len() int { return len(c.levels) }

// Close detaches every per-level sub-cache from its δ-GP.
func (c *MultiFidCache) Close() {
	for j, s := range c.subs {
		if s != nil {
			s.Close()
			c.subs[j] = nil
		}
		c.subGP[j] = nil
	}
}

// Scores returns the recursive posterior mean and standard deviation for
// every live candidate in pool order, and refreshes the per-candidate
// top-fidelity gains TopInfoGains serves. The slices are owned by the
// cache and overwritten by the next call.
func (c *MultiFidCache) Scores() (mu, sigma []float64) {
	c.sync()
	mm := len(c.levels)
	if cap(c.mu) < mm {
		c.mu = make([]float64, mm)
		c.sigma = make([]float64, mm)
	}
	if cap(c.gains) < mm {
		c.gains = make([]float64, mm)
	}
	c.mu, c.sigma, c.gains = c.mu[:mm], c.sigma[:mm], c.gains[:mm]
	L := len(c.subs)
	dmu := make([][]float64, L)
	dsig := make([][]float64, L)
	for j, s := range c.subs {
		if s != nil {
			dmu[j], dsig[j] = s.Scores()
		}
	}
	rho := c.m.rho
	for p := 0; p < mm; p++ {
		lvl := c.levels[p]
		var muAcc, varAcc, sdOwn float64
		for j := 0; j <= lvl; j++ {
			var md, sd float64
			if dmu[j] != nil {
				md, sd = dmu[j][p], dsig[j][p]
			} else {
				md, sd = 0, c.m.priorStd(c.xs[p])
			}
			if j == lvl {
				sdOwn = sd
			}
			if j == 0 {
				muAcc, varAcc = md, sd*sd
			} else {
				muAcc = rho[j]*muAcc + md
				varAcc = rho[j]*rho[j]*varAcc + sd*sd
			}
		}
		c.mu[p] = muAcc
		c.sigma[p] = math.Sqrt(varAcc)
		c.gains[p] = c.m.topWeight(lvl) * sdOwn * sdOwn
	}
	return c.mu, c.sigma
}

// TopInfoGains returns the per-candidate top-fidelity information gains in
// pool order, computing them (via Scores) if the pool changed since the
// last Scores call.
func (c *MultiFidCache) TopInfoGains() []float64 {
	if c.gains == nil || len(c.gains) != len(c.levels) {
		c.Scores()
	}
	return c.gains
}

// Remove deletes the candidate at pool position p from every per-level
// sub-cache and from the recombination bookkeeping.
func (c *MultiFidCache) Remove(p int) {
	if p < 0 || p >= len(c.levels) {
		panic(fmt.Sprintf("gp: MultiFidCache.Remove position %d out of range %d", p, len(c.levels)))
	}
	for _, s := range c.subs {
		if s != nil {
			s.Remove(p)
		}
	}
	c.xs = append(c.xs[:p], c.xs[p+1:]...)
	c.levels = append(c.levels[:p], c.levels[p+1:]...)
	c.gains = nil // force a recombination before the next TopInfoGains
}

// rowsDenseAllowEmpty is rowsDense tolerating an empty pool (a drained
// campaign may still sync a late-appearing level).
func rowsDenseAllowEmpty(rows [][]float64) *mat.Dense {
	if len(rows) == 0 {
		return mat.NewDense(0, 1, nil)
	}
	return rowsDense(rows)
}
