package engine

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync/atomic"

	"alamr/internal/gp"
	"alamr/internal/mat"
	"alamr/internal/obs"
)

// The streamed candidate pool replaces materialize-everything scoring for
// pools too large to hold per-candidate state: candidates are generated
// and scored shard by shard, every shard reduces into a bounded top-k
// heap, and the heaps merge into one exact global top-k shortlist. Peak
// pool memory is O(workers·shard + k) — per-worker feature slabs, score
// vectors, and partial heaps, plus the shortlist — instead of the O(m·n) a
// ScoringCache pins or the O(m) a materialized score pass allocates.
//
// Shard scoring is parallel: Select dispatches W = min(mat.Workers(),
// shards) worker lanes over the internal/mat pool, each lane claiming
// shards from a shared atomic cursor, generating each claimed shard into
// its own feature slab and scoring it with the model's PredictInto (which
// runs on the calling goroutine — the lanes *are* the parallelism) into
// its own bounded heap. The shortlist is independent of scheduling at
// every worker count: the top-k under the strict total order (rank desc,
// id asc) is a unique set, each
// candidate's scores are computed in full by exactly one lane with a
// floating-point evaluation order fixed by the shard layout alone, and the
// final merge sorts the union of the lanes' heaps under that same order —
// so which lane scored which shard cannot change the result.
// mat.SetWorkers(1) degrades to the fully serial reference path.
//
// The optional approximate mode additionally prunes shards whose best
// previously-observed rank cannot reach the current k-th best. For
// σ-monotone ranks (maxsigma: the posterior σ of every candidate is
// non-increasing as observations accumulate, for the exact, sparse, and
// per-leaf treed surrogates alike) the last observed shard maximum is a
// valid upper bound and the prune test compares it against a shared
// monotone lower bound on the final k-th rank (any lane that has filled
// its local heap publishes its heap root via an atomic CAS-max: k
// candidates rank at least that high, so the final k-th rank can only be
// higher). A stale read of the bound is always a smaller value, so racing
// lanes can only prune less, never more — pruning stays exact under any
// interleaving, even though *which* shards get pruned may vary with the
// schedule. For mean-coupled ranks (minpred) a mid-call bound is not valid
// and a schedule-dependent prune set would make the output depend on the
// worker count, so the prune threshold is instead the previous Select's
// final k-th rank — deterministic by construction, boundedly stale, with
// RefreshEvery forcing a full un-pruned rescore every k-th call.
// DESIGN.md §Surrogate scaling states both bounds precisely.

// CandidateSource yields candidate feature rows on demand, so a pool can
// exist without ever materializing m×d storage. Fill must be safe for
// concurrent use with distinct dst buffers: the parallel Select calls it
// from every worker lane (both built-in sources are read-only during
// Fill).
type CandidateSource interface {
	// Len is the total number of candidates.
	Len() int
	// Dim is the feature dimensionality.
	Dim() int
	// Fill writes rows [lo, hi) into the first hi-lo rows of dst.
	Fill(lo, hi int, dst *mat.Dense)
}

// DenseSource adapts an already-materialized feature matrix (e.g. the
// replay dataset, which is resident regardless) to CandidateSource.
type DenseSource struct{ X *mat.Dense }

// Len implements CandidateSource.
func (s DenseSource) Len() int { return s.X.Rows() }

// Dim implements CandidateSource.
func (s DenseSource) Dim() int { return s.X.Cols() }

// Fill implements CandidateSource.
func (s DenseSource) Fill(lo, hi int, dst *mat.Dense) {
	for i := lo; i < hi; i++ {
		copy(dst.Row(i-lo), s.X.Row(i))
	}
}

// GridSource is the lazy Cartesian grid: candidate i decodes mixed-radix
// into one coordinate per axis. A 10⁶-candidate grid occupies the axis
// slices only — this is the source the scale benchmarks stream from.
type GridSource struct{ Axes [][]float64 }

// Len implements CandidateSource.
func (s GridSource) Len() int {
	n := 1
	for _, ax := range s.Axes {
		n *= len(ax)
	}
	return n
}

// Dim implements CandidateSource.
func (s GridSource) Dim() int { return len(s.Axes) }

// Fill implements CandidateSource. The last axis varies fastest.
func (s GridSource) Fill(lo, hi int, dst *mat.Dense) {
	d := len(s.Axes)
	for i := lo; i < hi; i++ {
		row := dst.Row(i - lo)
		rem := i
		for j := d - 1; j >= 0; j-- {
			ax := s.Axes[j]
			row[j] = ax[rem%len(ax)]
			rem /= len(ax)
		}
	}
}

// RankFunc scores one candidate for shortlist ordering; higher is better.
// It must be the same criterion the policy maximizes, so the policy's
// argmax over the shortlist equals its argmax over the full pool.
type RankFunc func(muC, sigC, muM, sigM float64) float64

// rankerSpec pairs a shortlist criterion with its pruning class: monotone
// ranks can only decrease as observations accumulate (they depend on σ
// alone), so stale per-shard maxima are true upper bounds and approximate
// pruning stays exact.
type rankerSpec struct {
	fn       RankFunc
	monotone bool
}

// rankers maps shortlist-safe policy names to their selection criterion.
// Only pure argmax policies qualify: sampling policies (randuniform,
// randgoodness, rgma) draw from the whole pool and cannot run on a
// shortlist.
var rankers = map[string]rankerSpec{
	"maxsigma": {fn: func(muC, sigC, muM, sigM float64) float64 { return sigC }, monotone: true},
	"minpred":  {fn: func(muC, sigC, muM, sigM float64) float64 { return sigC - muC }},
}

func rankerFor(name string) (RankFunc, bool) {
	r, ok := rankers[normName(name)]
	return r.fn, ok
}

// rankerIsMonotone reports whether the named criterion is σ-monotone (see
// rankerSpec); unknown names report false.
func rankerIsMonotone(name string) bool { return rankers[normName(name)].monotone }

// RankerNames lists the shortlist-safe policy names, sorted.
func RankerNames() []string { return sortedKeys(rankers) }

// StreamConfig tunes StreamState; the zero value gets defaults.
type StreamConfig struct {
	ShardSize    int  // candidates per slab (default 4096)
	TopK         int  // shortlist size (default 64)
	Approx       bool // enable upper-bound shard pruning
	RefreshEvery int  // approx: full rescore every k-th call (default 16)
	Rank         RankFunc
	// NonMonotoneRank declares that Rank is not σ-monotone (its value can
	// rise for a fixed candidate as observations accumulate, e.g. minpred's
	// mean term). Approximate pruning then thresholds against the previous
	// Select's final k-th rank — a deterministic, boundedly-stale test —
	// instead of the in-call shared lower bound, which is exact only for
	// monotone ranks. Leave false for σ-only criteria like maxsigma.
	NonMonotoneRank bool
}

func (c *StreamConfig) setDefaults() {
	if c.ShardSize <= 0 {
		c.ShardSize = 4096
	}
	if c.TopK <= 0 {
		c.TopK = 64
	}
	if c.RefreshEvery <= 0 {
		c.RefreshEvery = 16
	}
}

// streamEntry is one shortlist candidate: its source id and scores.
type streamEntry struct {
	id        int
	rank      float64
	muC, sigC float64
	muM, sigM float64
}

// better orders entries like a first-max full scan: higher rank wins, ties
// go to the smaller source id.
func (e streamEntry) better(o streamEntry) bool {
	if e.rank != o.rank {
		return e.rank > o.rank
	}
	return e.id < o.id
}

// streamWorker is one scoring lane's private state, reused across Select
// calls: a one-shard feature slab, score buffers, a bounded partial heap,
// and the lane's shard counters (aggregated into the obs totals after the
// merge).
type streamWorker struct {
	xbuf                 *mat.Dense
	muC, sigC, muM, sigM []float64
	heap                 []streamEntry
	scored, pruned       int64
}

// kthBound is the shared monotone lower bound on the final k-th shortlist
// rank, published across lanes with a CAS-max. Any lane whose local heap
// holds k entries knows the merged top-k ranks at least as high as its
// heap root, so raising the bound to that root is always sound; a stale
// (lower) read by another lane only prunes less.
type kthBound struct{ bits atomic.Uint64 }

func (b *kthBound) store(v float64) { b.bits.Store(math.Float64bits(v)) }

func (b *kthBound) load() float64 { return math.Float64frombits(b.bits.Load()) }

// raise lifts the bound to v if v is higher; concurrent raises keep the
// maximum. Comparison is on float values, not bit patterns.
func (b *kthBound) raise(v float64) {
	for {
		old := b.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if b.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// StreamState is a streamed candidate pool usable across AL iterations: it
// keeps per-shard prune bounds and candidate tombstones, and produces one
// exact (or boundedly approximate) top-k shortlist per Select call.
// Select, Remove, and InvalidateBounds must not overlap (one selection
// loop owns the state); Select parallelizes internally.
type StreamState struct {
	src       CandidateSource
	cost, mem gp.Model
	cfg       StreamConfig

	removed  map[int]bool
	live     int
	prevBest []float64 // per-shard upper bound: last observed max rank
	calls    int
	lastKth  float64 // previous Select's final k-th rank (non-monotone prune threshold)

	workers []*streamWorker
}

// predictShard scores one shard into the reusable buffers.
func predictShard(m gp.Model, xs *mat.Dense, mean, std []float64) ([]float64, []float64) {
	rows := xs.Rows()
	mean, std = mean[:rows], std[:rows]
	m.PredictInto(xs, mean, std)
	return mean, std
}

// NewStreamState builds a streamed pool over src scored by the two fitted
// surrogates.
func NewStreamState(src CandidateSource, cost, mem gp.Model, cfg StreamConfig) *StreamState {
	cfg.setDefaults()
	if cfg.Rank == nil {
		cfg.Rank = rankers["maxsigma"].fn
	}
	n := src.Len()
	nShards := (n + cfg.ShardSize - 1) / cfg.ShardSize
	st := &StreamState{
		src:      src,
		cost:     cost,
		mem:      mem,
		cfg:      cfg,
		removed:  make(map[int]bool),
		live:     n,
		prevBest: make([]float64, nShards),
		lastKth:  math.Inf(-1),
	}
	for i := range st.prevBest {
		st.prevBest[i] = math.Inf(1) // never prune an unscored shard
	}
	return st
}

// Live reports the number of non-removed candidates.
func (st *StreamState) Live() int { return st.live }

// Remove tombstones candidate id (a source index). Tombstones only lower a
// shard's true maximum, so stale prune bounds stay valid upper bounds —
// including when the last live candidate of a shard goes: the shard's next
// scoring pass records -Inf and it prunes forever after.
func (st *StreamState) Remove(id int) {
	if !st.removed[id] {
		st.removed[id] = true
		st.live--
	}
}

// InvalidateBounds resets every shard's prune bound, forcing the next
// Select to rescore the whole pool. Required after any wholesale posterior
// change (a hyperparameter refit): stale shard maxima are upper bounds
// only while the posterior drifts monotonically, and a refit can raise σ
// everywhere at once. The replay loop calls this on every hyperopt.
func (st *StreamState) InvalidateBounds() {
	for i := range st.prevBest {
		st.prevBest[i] = math.Inf(1)
	}
	st.lastKth = math.Inf(-1)
}

// pushBounded maintains a bounded worst-at-root heap of the best k entries.
func pushBounded(h []streamEntry, e streamEntry, k int) []streamEntry {
	if len(h) < k {
		h = append(h, e)
		// Sift up: parent must be worse than child (root = worst).
		for i := len(h) - 1; i > 0; {
			p := (i - 1) / 2
			if h[i].better(h[p]) {
				break
			}
			h[i], h[p] = h[p], h[i]
			i = p
		}
		return h
	}
	if !e.better(h[0]) {
		return h
	}
	h[0] = e
	// Sift down: push the new root toward the leaves past any worse child.
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		worst := i
		if l < len(h) && h[i].better(h[l]) && h[worst].better(h[l]) {
			worst = l
		}
		if r < len(h) && h[i].better(h[r]) && h[worst].better(h[r]) {
			worst = r
		}
		if worst == i {
			break
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
	return h
}

// ensureWorkers sizes the lane pool to w, allocating each lane's slab and
// buffers once and reusing them across Select calls.
func (st *StreamState) ensureWorkers(w int) {
	shard := st.cfg.ShardSize
	dim := st.src.Dim()
	for len(st.workers) < w {
		st.workers = append(st.workers, nil)
	}
	for i := 0; i < w; i++ {
		if st.workers[i] == nil {
			st.workers[i] = &streamWorker{
				xbuf: mat.NewDense(shard, dim, nil),
				muC:  make([]float64, shard),
				sigC: make([]float64, shard),
				muM:  make([]float64, shard),
				sigM: make([]float64, shard),
			}
		}
	}
}

// scoreShard predicts one filled shard through both surrogates, reduces
// its live candidates into the lane's bounded heap, and refreshes the
// shard's prune bound. Writes touch lane-private state plus prevBest[s],
// which only this lane (the shard's claimant) writes.
func (st *StreamState) scoreShard(w *streamWorker, s, lo, hi int, xs *mat.Dense, bound *kthBound, useShared bool) {
	obs.PoolShardsInflight.Add(1)
	sp := obs.SpanShardScore.Start()
	muC, sigC := predictShard(st.cost, xs, w.muC, w.sigC)
	muM, sigM := predictShard(st.mem, xs, w.muM, w.sigM)
	k := st.cfg.TopK
	best := math.Inf(-1)
	for i := 0; i < hi-lo; i++ {
		id := lo + i
		if st.removed[id] {
			continue
		}
		r := st.cfg.Rank(muC[i], sigC[i], muM[i], sigM[i])
		if r > best {
			best = r
		}
		w.heap = pushBounded(w.heap, streamEntry{id: id, rank: r, muC: muC[i], sigC: sigC[i], muM: muM[i], sigM: sigM[i]}, k)
	}
	st.prevBest[s] = best
	w.scored++
	if useShared && len(w.heap) == k {
		bound.raise(w.heap[0].rank)
	}
	sp.End()
	obs.PoolShardsInflight.Add(-1)
}

// scoreLoop is one lane's Select body: claim shards off the shared cursor
// (consuming prune decisions inline), generate each into the lane's slab,
// and score it. threshold is the deterministic non-monotone prune limit;
// useShared switches to the in-call monotone bound.
func (st *StreamState) scoreLoop(w *streamWorker, next *atomic.Int64, bound *kthBound, threshold float64, useShared, prune bool, nShards int) {
	n := st.src.Len()
	shard := st.cfg.ShardSize
	dim := st.src.Dim()
	claim := func() int {
		for {
			s := int(next.Add(1)) - 1
			if s >= nShards {
				return -1
			}
			if prune {
				lim := threshold
				if useShared {
					lim = bound.load()
				}
				if st.prevBest[s] < lim {
					// Every candidate here ranked below the k-th-rank lower
					// bound the last time the shard was scored — nothing can
					// enter the shortlist. Strict <: ties are never pruned,
					// preserving first-max order.
					w.pruned++
					continue
				}
			}
			return s
		}
	}
	for s := claim(); s >= 0; s = claim() {
		lo := s * shard
		hi := lo + shard
		if hi > n {
			hi = n
		}
		xs := w.xbuf
		if hi-lo != shard {
			xs = mat.NewDense(hi-lo, dim, xs.RawData()[:(hi-lo)*dim])
		}
		st.src.Fill(lo, hi, xs)
		st.scoreShard(w, s, lo, hi, xs, bound, useShared)
	}
}

// Select scores the pool shard by shard — fanned out over min(Workers,
// shards) lanes, see the package comment for the determinism argument —
// and returns the top-k shortlist as a Candidates block plus the
// shortlist's source ids, both ordered by (rank desc, id asc) so a
// first-max policy scan picks the same candidate a full-pool scan would.
// The Candidates' slices are freshly allocated (size k); the X matrix
// holds the shortlist rows only.
func (st *StreamState) Select() (*Candidates, []int) {
	n := st.src.Len()
	shard := st.cfg.ShardSize
	k := st.cfg.TopK
	nShards := (n + shard - 1) / shard
	st.calls++
	refresh := !st.cfg.Approx || st.cfg.RefreshEvery <= 1 || st.calls%st.cfg.RefreshEvery == 1
	prune := st.cfg.Approx && !refresh
	useShared := prune && !st.cfg.NonMonotoneRank
	threshold := math.Inf(-1) // -Inf never prunes (strict <)
	if prune && st.cfg.NonMonotoneRank {
		threshold = st.lastKth
	}
	var bound kthBound
	bound.store(math.Inf(-1))

	w := mat.Workers()
	if w > nShards {
		w = nShards
	}
	if w < 1 {
		w = 1
	}
	st.ensureWorkers(w)
	for _, sw := range st.workers[:w] {
		sw.heap = sw.heap[:0]
		sw.scored, sw.pruned = 0, 0
	}
	var next atomic.Int64
	mat.ParallelWorkers(w, func(lane int) {
		st.scoreLoop(st.workers[lane], &next, &bound, threshold, useShared, prune, nShards)
	})

	var scored, pruned int64
	for _, sw := range st.workers[:w] {
		scored += sw.scored
		pruned += sw.pruned
	}
	obs.PoolShardsScored.Add(scored)
	obs.PoolShardsPruned.Add(pruned)
	obs.PoolStreamLive.Set(float64(st.live))
	if r := obs.Default(); r != nil {
		for lane, sw := range st.workers[:w] {
			if sw.scored > 0 {
				r.Counter(obs.Labeled(obs.MetricPoolWorkerShards, obs.LabelWorker, strconv.Itoa(lane)),
					"streamed-pool shards scored, by worker lane").Add(sw.scored)
			}
		}
	}

	// Merge: the union of the lanes' bounded heaps contains the global
	// top-k (each lane kept the best k of its own shards), and sorting
	// under the strict total order recovers it independent of which lane
	// held what.
	var out []streamEntry
	for _, sw := range st.workers[:w] {
		out = append(out, sw.heap...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].better(out[j]) })
	if len(out) > k {
		out = out[:k]
	}
	if len(out) == k {
		st.lastKth = out[k-1].rank
	} else {
		st.lastKth = math.Inf(-1)
	}

	ids := make([]int, len(out))
	c := &Candidates{
		X:           mat.NewDense(len(out), st.src.Dim(), nil),
		MuCost:      make([]float64, len(out)),
		SigmaCost:   make([]float64, len(out)),
		MuMem:       make([]float64, len(out)),
		SigmaMem:    make([]float64, len(out)),
		MemLimitLog: math.Inf(1),
	}
	one := mat.NewDense(1, st.src.Dim(), nil)
	for i, e := range out {
		ids[i] = e.id
		c.MuCost[i], c.SigmaCost[i] = e.muC, e.sigC
		c.MuMem[i], c.SigmaMem[i] = e.muM, e.sigM
		st.src.Fill(e.id, e.id+1, one)
		copy(c.X.Row(i), one.Row(0))
	}
	return c, ids
}

// streamScorer adapts a StreamState to the replay loop's scorer surface:
// the policy sees the shortlist as its candidate set, and shortlist picks
// translate back to pool positions through the sorted live-id mirror.
type streamScorer struct {
	st  *StreamState
	ids []int // pool position → source id; sorted ascending (mirror of remaining)

	shortIDs []int      // shortlist position → source id, from the last Select
	shortX   *mat.Dense // shortlist feature rows, from the last Select
}

func newStreamScorer(cost, mem gp.Model, x *mat.Dense, spec *PoolSpec, rank RankFunc, monotone bool) *streamScorer {
	cfg := StreamConfig{Rank: rank, NonMonotoneRank: !monotone}
	if spec != nil {
		cfg.ShardSize = spec.Shard
		cfg.TopK = spec.TopK
		cfg.Approx = spec.Approx
		cfg.RefreshEvery = spec.RefreshEvery
	}
	ids := make([]int, x.Rows())
	for i := range ids {
		ids[i] = i
	}
	return &streamScorer{
		st:  NewStreamState(DenseSource{X: x}, cost, mem, cfg),
		ids: ids,
	}
}

func (s *streamScorer) candidates(memLimitLog float64) *Candidates {
	c, ids := s.st.Select()
	c.MemLimitLog = memLimitLog
	s.shortIDs = ids
	s.shortX = c.X
	return c
}

// row returns the features of shortlist pick p (valid until the next
// candidates call, matching the loop's consume-before-Remove contract).
func (s *streamScorer) row(p int) []float64 { return s.shortX.Row(p) }

// translate maps shortlist pick p to its pool position via binary search
// in the sorted live-id mirror.
func (s *streamScorer) translate(p int) int {
	id := s.shortIDs[p]
	pos := sort.SearchInts(s.ids, id)
	if pos >= len(s.ids) || s.ids[pos] != id {
		panic(fmt.Sprintf("engine: streamed pool lost candidate id %d", id))
	}
	return pos
}

// remove drops the candidate at pool position p: tombstoned in the stream
// state, compacted out of the id mirror.
func (s *streamScorer) remove(p int) {
	s.st.Remove(s.ids[p])
	s.ids = append(s.ids[:p], s.ids[p+1:]...)
}

// invalidate resets the prune bounds after a model refit (see
// StreamState.InvalidateBounds).
func (s *streamScorer) invalidate() { s.st.InvalidateBounds() }

// fidelityGains is unavailable on the shortlist path: the streamed pool
// supports shortlist-safe rankers only, none of which consume gains.
func (s *streamScorer) fidelityGains() []float64 { return nil }

func (s *streamScorer) close() {}
