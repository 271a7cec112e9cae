package mat

import (
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// withWorkers runs fn under a fixed parallelism target, restoring the
// previous setting afterwards.
func withWorkers(n int, fn func()) {
	prev := SetWorkers(n)
	defer SetWorkers(prev)
	fn()
}

// eqSizes straddle both the dispatch thresholds and the cholBlock panel
// width, so each test exercises the pure-serial path, the single-block
// path, and the multi-block parallel path.
var eqSizes = []int{1, 3, 33, 63, 64, 65, 127, 200, 257}

func bitwiseEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] || math.Signbit(a[i]) != math.Signbit(b[i]) {
			return false
		}
	}
	return true
}

func TestParallelForCoversEachIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 64, 1000} {
		counts := make([]int64, n)
		withWorkers(8, func() {
			ParallelFor(n, 3, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt64(&counts[i], 1)
				}
			})
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, c)
			}
		}
	}
}

func TestParallelSumDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	x := randomVec(rng, 1000)
	sum := func() float64 {
		return ParallelSum(len(x), 1, func(lo, hi int) float64 {
			var s float64
			for i := lo; i < hi; i++ {
				s += x[i]
			}
			return s
		})
	}
	var serial, par2, par16 float64
	withWorkers(1, func() { serial = sum() })
	withWorkers(2, func() { par2 = sum() })
	withWorkers(16, func() { par16 = sum() })
	if serial != par2 || serial != par16 {
		t.Fatalf("ParallelSum differs across worker counts: %v %v %v", serial, par2, par16)
	}
}

func TestCholeskySerialParallelIdentical(t *testing.T) {
	for _, n := range eqSizes {
		rng := rand.New(rand.NewSource(int64(n) + 2))
		a := randomSPD(rng, n)
		rhs := randomVec(rng, n)
		var chS, chP *Cholesky
		var err error
		withWorkers(1, func() { chS, err = NewCholesky(a) })
		if err != nil {
			t.Fatalf("n=%d: serial factorization failed: %v", n, err)
		}
		withWorkers(8, func() { chP, err = NewCholesky(a) })
		if err != nil {
			t.Fatalf("n=%d: parallel factorization failed: %v", n, err)
		}
		if !bitwiseEqual(chS.data, chP.data) {
			t.Fatalf("n=%d: parallel Cholesky factor differs from serial", n)
		}
		var xS, xP, fS, fP []float64
		var invS, invP *Dense
		withWorkers(1, func() { xS = chS.SolveVec(rhs); fS = chS.ForwardSolveVec(rhs); invS = chS.Inverse() })
		withWorkers(8, func() { xP = chP.SolveVec(rhs); fP = chP.ForwardSolveVec(rhs); invP = chP.Inverse() })
		if !bitwiseEqual(xS, xP) {
			t.Fatalf("n=%d: parallel SolveVec differs from serial", n)
		}
		if !bitwiseEqual(fS, fP) {
			t.Fatalf("n=%d: parallel ForwardSolveVec differs from serial", n)
		}
		if !bitwiseEqual(invS.RawData(), invP.RawData()) {
			t.Fatalf("n=%d: parallel Inverse differs from serial", n)
		}
	}
}

// Property: serial/parallel equivalence holds for arbitrary seeds and sizes,
// not just the hand-picked boundary cases.
func TestCholeskySerialParallelProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(150)
		a := randomSPD(rng, n)
		var chS, chP *Cholesky
		var errS, errP error
		withWorkers(1, func() { chS, errS = NewCholesky(a) })
		withWorkers(7, func() { chP, errP = NewCholesky(a) })
		if (errS == nil) != (errP == nil) {
			return false
		}
		if errS != nil {
			return true
		}
		return bitwiseEqual(chS.data, chP.data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Blocked factorization must agree with a naive reference Cholesky to
// numerical accuracy (the summation orders differ, so the comparison is
// tolerance-based, not bitwise).
func TestCholeskyMatchesNaiveReference(t *testing.T) {
	naive := func(a *Dense) *Dense {
		n := a.Rows()
		l := NewDense(n, n, nil)
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				s := a.At(i, j)
				for k := 0; k < j; k++ {
					s -= l.At(i, k) * l.At(j, k)
				}
				if i == j {
					l.Set(i, j, math.Sqrt(s))
				} else {
					l.Set(i, j, s/l.At(j, j))
				}
			}
		}
		return l
	}
	for _, n := range eqSizes {
		rng := rand.New(rand.NewSource(int64(n) + 3))
		a := randomSPD(rng, n)
		ch, err := NewCholesky(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		want := naive(a)
		got := ch.L()
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				if !almostEqual(got.At(i, j), want.At(i, j), 1e-9) {
					t.Fatalf("n=%d: L[%d,%d] = %g, naive %g", n, i, j, got.At(i, j), want.At(i, j))
				}
			}
		}
	}
}

// Extend must produce the same factor as refactorizing the bordered matrix
// from scratch.
func TestCholeskyExtendMatchesRefactorization(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	n := 80
	full := randomSPD(rng, n+1)
	sub := NewDense(n, n, nil)
	for i := 0; i < n; i++ {
		copy(sub.Row(i), full.Row(i)[:n])
	}
	ch, err := NewCholesky(sub)
	if err != nil {
		t.Fatal(err)
	}
	border := make([]float64, n)
	for i := 0; i < n; i++ {
		border[i] = full.At(i, n)
	}
	l := ch.ForwardSolveVec(border)
	d2 := full.At(n, n) - Dot(l, l)
	if d2 <= 0 {
		t.Fatalf("bordered pivot %g not positive", d2)
	}
	ch.Extend(l, math.Sqrt(d2))
	if ch.Size() != n+1 {
		t.Fatalf("Size after Extend = %d want %d", ch.Size(), n+1)
	}
	want, err := NewCholesky(full)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := ch.L(), want.L()
	for i := 0; i <= n; i++ {
		for j := 0; j <= i; j++ {
			if !almostEqual(gl.At(i, j), wl.At(i, j), 1e-8) {
				t.Fatalf("extended L[%d,%d] = %g, refactorized %g", i, j, gl.At(i, j), wl.At(i, j))
			}
		}
	}
}

// Extend must not reallocate on every call: over a burst of appends the
// backing array should grow O(log k) times.
func TestCholeskyExtendAmortizedGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	a := randomSPD(rng, 8)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	grows := 0
	for i := 0; i < 200; i++ {
		before := cap(ch.data)
		border := make([]float64, ch.Size())
		ch.Extend(border, 1)
		if cap(ch.data) != before {
			grows++
		}
	}
	if grows > 20 {
		t.Fatalf("Extend reallocated %d times over 200 appends; growth is not amortized", grows)
	}
}

func TestDotBlockedMatchesDot(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, n := range []int{0, 1, 3, 4, 5, 17, 256} {
		a := randomVec(rng, n)
		b := randomVec(rng, n)
		if !almostEqual(DotBlocked(a, b), Dot(a, b), 1e-12) {
			t.Fatalf("n=%d: DotBlocked diverges from Dot", n)
		}
	}
}

func TestTraceMulElemMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for _, n := range []int{1, 17, 200} {
		a := randomDense(rng, n, n)
		b := randomDense(rng, n, n)
		var naive float64
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				naive += a.At(i, j) * b.At(i, j)
			}
		}
		var serial, parallel float64
		withWorkers(1, func() { serial = TraceMulElem(a, b) })
		withWorkers(8, func() { parallel = TraceMulElem(a, b) })
		if serial != parallel {
			t.Fatalf("n=%d: TraceMulElem differs across worker counts", n)
		}
		if !almostEqual(serial, naive, 1e-10) {
			t.Fatalf("n=%d: TraceMulElem = %g naive %g", n, serial, naive)
		}
	}
}

func TestAppendRowAmortized(t *testing.T) {
	m := NewDense(1, 3, []float64{1, 2, 3})
	grows := 0
	for i := 0; i < 200; i++ {
		before := cap(m.RawData())
		m = m.AppendRow([]float64{4, 5, 6})
		if cap(m.RawData()) != before {
			grows++
		}
	}
	if m.Rows() != 201 {
		t.Fatalf("Rows = %d want 201", m.Rows())
	}
	if grows > 20 {
		t.Fatalf("AppendRow reallocated %d times over 200 appends", grows)
	}
	if m.At(200, 2) != 6 || m.At(0, 0) != 1 {
		t.Fatal("AppendRow corrupted contents")
	}
}

// TestParallelWorkersEachBodyOnce: every body fn(0..w-1) runs exactly once,
// across serial (SetWorkers(1)), caller-only (w=1), and dispatched modes.
func TestParallelWorkersEachBodyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		for _, w := range []int{0, 1, 2, 5, 16} {
			counts := make([]int64, w+1)
			withWorkers(workers, func() {
				ParallelWorkers(w, func(id int) {
					atomic.AddInt64(&counts[id], 1)
				})
			})
			for id := 0; id < w; id++ {
				if counts[id] != 1 {
					t.Fatalf("workers=%d w=%d: body %d ran %d times", workers, w, id, counts[id])
				}
			}
		}
	}
}

// TestParallelWorkersNested: a body may itself call into the parallel
// layer; the never-blocking pool discipline keeps nesting deadlock-free.
func TestParallelWorkersNested(t *testing.T) {
	withWorkers(4, func() {
		var total atomic.Int64
		ParallelWorkers(4, func(id int) {
			ParallelFor(100, 1, func(lo, hi int) {
				total.Add(int64(hi - lo))
			})
		})
		if total.Load() != 400 {
			t.Fatalf("nested ParallelFor covered %d indices, want 400", total.Load())
		}
	})
}
