package gp

import (
	"fmt"

	"alamr/internal/mat"
	"alamr/internal/obs"
)

// PoolCache is the incremental pool-scoring surface the engine consumes:
// posterior over every live candidate, O(1)-amortized candidate removal,
// and automatic tracking of the model's Append/Refit mutations. Each
// surrogate family has its own implementation (ScoringCache for the exact
// GP, SparseScoringCache for SoR, TreedScoringCache for the partitioned
// model, MultiFidCache for co-kriging); NewPoolCache picks it by model type.
type PoolCache interface {
	// Scores returns posterior mean and std for every live candidate in
	// pool order; the slices are owned by the cache.
	Scores() (mu, sigma []float64)
	// Remove deletes the candidate at pool position p.
	Remove(p int)
	// Len reports the number of live candidates.
	Len() int
	// Close detaches the cache from its model.
	Close()
}

var (
	_ PoolCache = (*ScoringCache)(nil)
	_ PoolCache = (*SparseScoringCache)(nil)
	_ PoolCache = (*TreedScoringCache)(nil)
)

// NewPoolCache attaches the model-appropriate incremental scoring cache
// for the candidate rows of x. Every Model family has one; a model type
// outside the closed set panics.
func NewPoolCache(m Model, x *mat.Dense) PoolCache {
	switch mm := m.(type) {
	case *GP:
		return NewScoringCache(mm, x)
	case *Sparse:
		return NewSparseScoringCache(mm, x)
	case *Treed:
		return NewTreedScoringCache(mm, x)
	case *MultiFid:
		return NewMultiFidCache(mm, x)
	default:
		panic(fmt.Sprintf("gp: no pool cache for model type %T", m))
	}
}

// TreedScoringCache is the ScoringCache analogue for the treed surrogate:
// every candidate routes to its covering leaf, and one ordinary
// ScoringCache per occupied leaf holds the per-candidate posterior state
// against that leaf's GP. Because a Treed.Append touches exactly one leaf
// GP, only that leaf's ScoringCache extends — every other leaf's
// candidates keep their cached state untouched, which is the per-leaf
// invalidation the treed model exists for. The per-leaf caches inherit the
// exact-GP bitwise contract (extended state ≡ rebuilt state) from
// ScoringCache, so the treed cache as a whole scores bitwise-identically
// whether it reached the current training set by appends or by a fresh
// rebuild.
//
// Leaf re-splits (a leaf outgrowing rebalance×LeafSize) retire that leaf's
// GP: the cache closes the dead leaf's ScoringCache and re-routes only its
// members to the replacement leaves — candidates of untouched leaves are
// never re-scored.
//
// Internally candidates live in stable slots (slot features are copied
// once); removal drops a candidate from the pool order and from its leaf
// cache but does not compact slot storage — the retained per-slot payload
// is one feature row, negligible next to the O(n_leaf) state the leaf
// caches swap-delete themselves.
type TreedScoringCache struct {
	t *Treed

	xs      [][]float64 // slot → candidate features (private copies)
	slotGP  []*GP       // slot → leaf model currently caching it (nil before build)
	slotPos []int       // slot → pool position within that leaf's cache

	order   []int // pool position → slot
	entries map[*GP]*treedLeafEntry
	built   bool

	slotMu, slotSigma []float64 // scatter buffers, slot-major
	mu, sigma         []float64 // pool-order output buffers
}

type treedLeafEntry struct {
	cache   *ScoringCache
	members []int // slot ids, in the leaf cache's pool order
}

// NewTreedScoringCache attaches a per-leaf-routed posterior cache for the
// candidate rows of x to the fitted treed model t. Candidate features are
// copied. The cache registers itself with t until Close detaches it.
func NewTreedScoringCache(t *Treed, x *mat.Dense) *TreedScoringCache {
	if t.root == nil {
		panic("gp: NewTreedScoringCache before Fit")
	}
	m := x.Rows()
	c := &TreedScoringCache{
		t:       t,
		xs:      make([][]float64, m),
		slotGP:  make([]*GP, m),
		slotPos: make([]int, m),
		order:   make([]int, m),
	}
	for i := 0; i < m; i++ {
		c.xs[i] = mat.CopyVec(x.Row(i))
		c.order[i] = i
	}
	t.caches = append(t.caches, c)
	return c
}

// Len reports the number of live candidates.
func (c *TreedScoringCache) Len() int { return len(c.order) }

// Close detaches the cache from its model and releases every leaf cache.
func (c *TreedScoringCache) Close() {
	for i, o := range c.t.caches {
		if o == c {
			c.t.caches = append(c.t.caches[:i], c.t.caches[i+1:]...)
			break
		}
	}
	c.dropEntries()
}

func (c *TreedScoringCache) dropEntries() {
	for _, e := range c.entries {
		e.cache.Close()
	}
	c.entries = nil
	c.built = false
}

// onReset is called when the whole tree was rebuilt (Fit): every leaf GP
// is new, so all routing and leaf caches are discarded and lazily rebuilt.
func (c *TreedScoringCache) onReset() { c.dropEntries() }

// onResplit is called when one over-full leaf was replaced by a subtree:
// only that leaf's members re-route; other leaves' caches are untouched.
func (c *TreedScoringCache) onResplit(old *GP) {
	if !c.built {
		return
	}
	e := c.entries[old]
	if e == nil {
		return
	}
	e.cache.Close()
	delete(c.entries, old)
	c.routeSlots(e.members)
}

// routeSlots assigns each given slot to its covering leaf and (re)builds
// the affected leaf entries. Slots landing in a leaf that already has an
// entry force that entry's rebuild with the combined member set.
func (c *TreedScoringCache) routeSlots(slots []int) {
	groups := make(map[*GP][]int)
	for _, s := range slots {
		leaf := c.t.leafFor(c.xs[s])
		groups[leaf.model] = append(groups[leaf.model], s)
	}
	for model, members := range groups {
		if prev := c.entries[model]; prev != nil {
			prev.cache.Close()
			members = append(prev.members, members...)
		}
		obs.ModelCacheOps.Inc(obs.ModelCacheTreedRebuild)
		d := mat.NewDense(len(members), len(c.xs[members[0]]), nil)
		for r, s := range members {
			copy(d.Row(r), c.xs[s])
		}
		c.entries[model] = &treedLeafEntry{cache: NewScoringCache(model, d), members: members}
		for p, s := range members {
			c.slotGP[s] = model
			c.slotPos[s] = p
		}
	}
}

func (c *TreedScoringCache) ensureBuilt() {
	if c.built {
		return
	}
	c.entries = make(map[*GP]*treedLeafEntry)
	c.built = true
	live := make([]int, len(c.order))
	copy(live, c.order)
	c.routeSlots(live)
}

// Scores returns the posterior mean and standard deviation for every live
// candidate in pool order, gathering each occupied leaf's ScoringCache.
// The returned slices are owned by the cache.
func (c *TreedScoringCache) Scores() (mu, sigma []float64) {
	c.ensureBuilt()
	nSlots := len(c.xs)
	if cap(c.slotMu) < nSlots {
		c.slotMu = make([]float64, nSlots)
		c.slotSigma = make([]float64, nSlots)
	}
	c.slotMu, c.slotSigma = c.slotMu[:nSlots], c.slotSigma[:nSlots]
	for _, e := range c.entries {
		emu, esigma := e.cache.Scores()
		for p, s := range e.members {
			c.slotMu[s] = emu[p]
			c.slotSigma[s] = esigma[p]
		}
	}
	m := len(c.order)
	if cap(c.mu) < m {
		c.mu = make([]float64, m)
		c.sigma = make([]float64, m)
	}
	c.mu, c.sigma = c.mu[:m], c.sigma[:m]
	for p, s := range c.order {
		c.mu[p] = c.slotMu[s]
		c.sigma[p] = c.slotSigma[s]
	}
	return c.mu, c.sigma
}

// Remove deletes the candidate at pool position p: it leaves the pool
// order and its leaf's cache; the slot's feature row is retained (stable
// slot ids keep leaf membership bookkeeping O(members) instead of global).
func (c *TreedScoringCache) Remove(p int) {
	if p < 0 || p >= len(c.order) {
		panic(fmt.Sprintf("gp: TreedScoringCache.Remove position %d out of range %d", p, len(c.order)))
	}
	s := c.order[p]
	c.order = append(c.order[:p], c.order[p+1:]...)
	if !c.built {
		return
	}
	e := c.entries[c.slotGP[s]]
	j := c.slotPos[s]
	e.cache.Remove(j)
	copy(e.members[j:], e.members[j+1:])
	e.members = e.members[:len(e.members)-1]
	for q := j; q < len(e.members); q++ {
		c.slotPos[e.members[q]] = q
	}
	c.slotGP[s] = nil
}
