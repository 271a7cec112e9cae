package mat

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCholeskyKnown(t *testing.T) {
	// A = [[4,2],[2,3]] has L = [[2,0],[1,sqrt(2)]].
	a := NewDense(2, 2, []float64{4, 2, 2, 3})
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	l := ch.L()
	if !almostEqual(l.At(0, 0), 2, 1e-14) ||
		!almostEqual(l.At(1, 0), 1, 1e-14) ||
		!almostEqual(l.At(1, 1), math.Sqrt2, 1e-14) ||
		l.At(0, 1) != 0 {
		t.Fatalf("unexpected factor:\n%v", l)
	}
}

func TestCholeskyNotPD(t *testing.T) {
	a := NewDense(2, 2, []float64{1, 2, 2, 1}) // eigenvalues 3, -1
	if _, err := NewCholesky(a); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("err = %v want ErrNotPositiveDefinite", err)
	}
}

func TestCholeskyNonSquarePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	_, _ = NewCholesky(NewDense(2, 3, nil))
}

func TestCholeskyJitterRecoversSingular(t *testing.T) {
	// Rank-deficient Gram matrix from duplicated rows — the normal condition
	// for datasets with repeated measurements.
	a := NewDense(2, 2, []float64{1, 1, 1, 1})
	ch, err := NewCholeskyJitter(a, 1e-10, 1e-2)
	if err != nil {
		t.Fatal(err)
	}
	if ch.Jitter() == 0 {
		t.Fatal("expected nonzero jitter for singular matrix")
	}
	// Solution should still be finite and approximately solve (A+jI)x=b.
	x := ch.SolveVec([]float64{1, 1})
	if !AllFinite(x) {
		t.Fatalf("solution not finite: %v", x)
	}
}

func TestCholeskyJitterExhausted(t *testing.T) {
	a := NewDense(2, 2, []float64{1, 2, 2, 1})
	// Indefinite matrix: tiny jitter cannot fix eigenvalue -1.
	if _, err := NewCholeskyJitter(a, 1e-12, 1e-9); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("err = %v want ErrNotPositiveDefinite", err)
	}
}

func TestCholeskySolveVec(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randomSPD(rng, 6)
	xTrue := randomVec(rng, 6)
	b := a.MulVec(xTrue)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	x := ch.SolveVec(b)
	for i := range x {
		if !almostEqual(x[i], xTrue[i], 1e-8) {
			t.Fatalf("x[%d] = %g want %g", i, x[i], xTrue[i])
		}
	}
}

func TestCholeskyInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randomSPD(rng, 4)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	inv := ch.Inverse()
	prod := Mul(a, inv)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if !almostEqual(prod.At(i, j), want, 1e-8) {
				t.Fatalf("A*A^-1 at %d,%d = %g want %g", i, j, prod.At(i, j), want)
			}
		}
	}
}

func TestCholeskyLogDetIdentity(t *testing.T) {
	ch, err := NewCholesky(Eye(5))
	if err != nil {
		t.Fatal(err)
	}
	if got := ch.LogDet(); !almostEqual(got, 0, 1e-14) {
		t.Fatalf("LogDet(I) = %g want 0", got)
	}
}

func TestCholeskyLogDetDiagonal(t *testing.T) {
	a := NewDense(3, 3, []float64{2, 0, 0, 0, 3, 0, 0, 0, 4})
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Log(24)
	if got := ch.LogDet(); !almostEqual(got, want, 1e-12) {
		t.Fatalf("LogDet = %g want %g", got, want)
	}
}

// Property: L Lᵀ reconstructs A for random SPD matrices.
func TestCholeskyReconstructionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		a := randomSPD(rng, n)
		ch, err := NewCholesky(a)
		if err != nil {
			return false
		}
		rec := Mul(ch.L(), ch.L().T())
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if !almostEqual(rec.At(i, j), a.At(i, j), 1e-9) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: SolveVec returns x with A x = b.
func TestCholeskySolveProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		a := randomSPD(rng, n)
		b := randomVec(rng, n)
		ch, err := NewCholesky(a)
		if err != nil {
			return false
		}
		x := ch.SolveVec(b)
		ax := a.MulVec(x)
		for i := range b {
			if !almostEqual(ax[i], b[i], 1e-6) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: log|A| from Cholesky agrees with the product of eigenvalue
// surrogate computed via the determinant of small matrices (n<=3, cofactor
// expansion).
func TestCholeskyLogDetProperty(t *testing.T) {
	det2 := func(a *Dense) float64 {
		return a.At(0, 0)*a.At(1, 1) - a.At(0, 1)*a.At(1, 0)
	}
	det3 := func(a *Dense) float64 {
		return a.At(0, 0)*(a.At(1, 1)*a.At(2, 2)-a.At(1, 2)*a.At(2, 1)) -
			a.At(0, 1)*(a.At(1, 0)*a.At(2, 2)-a.At(1, 2)*a.At(2, 0)) +
			a.At(0, 2)*(a.At(1, 0)*a.At(2, 1)-a.At(1, 1)*a.At(2, 0))
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(2)
		a := randomSPD(rng, n)
		ch, err := NewCholesky(a)
		if err != nil {
			return false
		}
		var det float64
		if n == 2 {
			det = det2(a)
		} else {
			det = det3(a)
		}
		return almostEqual(ch.LogDet(), math.Log(det), 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: Rank1Update(u) lands on the factorization of A + u uᵀ.
func TestCholeskyRank1Update(t *testing.T) {
	for _, n := range []int{1, 3, 17, 70} { // 70 crosses the cholBlock boundary
		rng := rand.New(rand.NewSource(int64(n)))
		a := randomSPD(rng, n)
		ch, err := NewCholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		u := randomVec(rng, n)
		ch.Rank1Update(append([]float64(nil), u...))

		up := a.Clone()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				up.Set(i, j, up.At(i, j)+u[i]*u[j])
			}
		}
		want, err := NewCholesky(up)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				if !almostEqual(ch.L().At(i, j), want.L().At(i, j), 1e-8) {
					t.Fatalf("n=%d: L[%d,%d] = %g want %g", n, i, j, ch.L().At(i, j), want.L().At(i, j))
				}
			}
		}
	}
}

// SolveVecTo must agree bitwise with SolveVec: the sparse scoring cache
// rebuilds through the scratch-buffer form while direct predictions
// allocate, and both must see identical posterior state.
func TestSolveVecToBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 5, 64, 65, 130, 200} {
		a := randomSPD(rng, n)
		ch, err := NewCholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		b := randomVec(rng, n)
		want := ch.SolveVec(b)
		got := make([]float64, n)
		ch.SolveVecTo(got, b)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: SolveVecTo diverges at %d: %g vs %g", n, i, got[i], want[i])
			}
		}
	}
}
