package gp

import (
	"math"
	"math/rand"
	"testing"

	"alamr/internal/kernel"
	"alamr/internal/mat"
)

// lmlKernels are the kernel families whose value-only LML must match the
// LML computed alongside the gradient. ARD-RBF is the trap: kernel.Gram
// evaluates it on pre-scaled rows, the gradient path on per-dimension
// differences, and the two disagree in the last bits.
func lmlKernels() []kernel.Kernel {
	return []kernel.Kernel{
		kernel.NewRBF(0.7, 1.1),
		kernel.NewARDRBF([]float64{0.6, 1.3}, 0.9),
		kernel.NewMatern(1.5, 0.8, 1.2),
		kernel.NewMatern(2.5, 0.8, 1.2),
	}
}

// eagerLML is the LML-plus-gradient evaluation the value-first objective
// replaced, kept here as the reference: K_y and dK/dθ from one GramGrad
// pass, then the factor, α, K_y⁻¹ and the traces.
func eagerLML(k kernel.Kernel, logNoise float64, x *mat.Dense, y []float64) (float64, []float64) {
	n := x.Rows()
	ky, grads := kernel.GramGrad(k, x)
	noise2 := math.Exp(2 * logNoise)
	ky.AddDiag(noise2)
	ch, err := mat.NewCholeskyJitter(ky, 1e-10, 1e-6)
	if err != nil {
		panic(err)
	}
	alpha := ch.SolveVec(y)
	lml := -0.5*mat.Dot(y, alpha) - 0.5*ch.LogDet() - 0.5*float64(n)*math.Log(2*math.Pi)
	kinv := ch.Inverse()
	np := k.NumParams()
	grad := make([]float64, np+1)
	for t := 0; t < np; t++ {
		grad[t] = 0.5 * traceInnerDiff(alpha, kinv, grads[t])
	}
	var tr float64
	for i := 0; i < n; i++ {
		tr += alpha[i]*alpha[i] - kinv.At(i, i)
	}
	grad[np] = 0.5 * tr * 2 * noise2
	return lml, grad
}

// TestLMLValueOnlyMatchesFullBitwise pins the value step against the full
// LML-plus-gradient evaluation for every kernel family, across sizes that
// straddle the Cholesky panel width, and the thunk's gradient against the
// eager gradient. One objective is reused over all hyperparameter points,
// so the reused assembly buffers are exercised too.
func TestLMLValueOnlyMatchesFullBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{7, 65} {
		x, y := eqTrainingSet(rng, n)
		for _, proto := range lmlKernels() {
			o := newLMLObjective(x, y, true)
			k := proto.Clone()
			p0 := k.Params()
			for trial := 0; trial < 3; trial++ {
				p := mat.CopyVec(p0)
				for i := range p {
					p[i] += 0.3 * rng.NormFloat64()
				}
				k.SetParams(p)
				logNoise := -2 + 0.5*rng.NormFloat64()
				wantV, wantG := eagerLML(k, logNoise, x, y)
				v, grad, err := o.eval(k, logNoise)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(v) != math.Float64bits(wantV) {
					t.Fatalf("n=%d %s: value-only LML %v != full %v", n, k, v, wantV)
				}
				if trial == 1 {
					continue // a point whose gradient is never read
				}
				if g := grad(); !bitwiseEq(g, wantG) {
					t.Fatalf("n=%d %s: gradient %v != eager %v", n, k, g, wantG)
				}
			}
		}
	}
}

// TestLMLStaleThunkPanics pins the thunk-validity contract: once the
// objective has evaluated another point, the earlier thunk would read
// overwritten buffers, so it must fail loudly.
func TestLMLStaleThunkPanics(t *testing.T) {
	x, y := eqTrainingSet(rand.New(rand.NewSource(2)), 10)
	o := newLMLObjective(x, y, true)
	k := kernel.NewRBF(1, 1)
	_, stale, err := o.eval(k, -1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := o.eval(k, -2); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("stale gradient thunk did not panic")
		}
	}()
	stale()
}

// TestHyperoptMatchesRecorded pins a full multi-restart fit per kernel
// family to the hyperparameters and LML the eager objective produced,
// recorded as float64 bit patterns on linux/amd64.
func TestHyperoptMatchesRecorded(t *testing.T) {
	cases := []struct {
		k         kernel.Kernel
		want      []uint64
		wantLML   uint64
		shortName string
	}{
		{kernel.NewRBF(0.5, 1), []uint64{0x3feb268cd736ea0e, 0x3fe95e57b0e61572, 0xc031e297ca4026a2}, 0x4060c1cd1df4a07a, "rbf"},
		{kernel.NewARDRBF([]float64{0.5, 0.9}, 1), []uint64{0x3fea602e0a122598, 0x3febf9e474edeb28, 0x3fe95b787d72add4, 0xc0315233e764901e}, 0x4060c807d0c6750a, "ard"},
		{kernel.NewMatern(1.5, 0.5, 1), []uint64{0x3ff9a025f7ccdb82, 0x3fc2f3d119a651ae, 0xc032044d8184684d}, 0x4046d963988cae6c, "matern32"},
		{kernel.NewMatern(2.5, 0.5, 1), []uint64{0x3ff9b25b8ff89288, 0x3feb2e04a79750ff, 0xc0306e364eb991fa}, 0x405121112063a7e0, "matern52"},
	}
	for _, tc := range cases {
		x, y := eqTrainingSet(rand.New(rand.NewSource(11)), 40)
		g := New(tc.k, Config{Noise: 0.1, NormalizeY: true, Seed: 3, Restarts: 2})
		if err := g.Fit(x, y); err != nil {
			t.Fatal(err)
		}
		h := g.Hyperparams()
		for i, b := range tc.want {
			if math.Float64bits(h[i]) != b {
				t.Fatalf("%s: hyperparameter %d = %#x, recorded %#x", tc.shortName, i, math.Float64bits(h[i]), b)
			}
		}
		if got := math.Float64bits(g.LogMarginalLikelihood()); got != tc.wantLML {
			t.Fatalf("%s: LML bits %#x, recorded %#x", tc.shortName, got, tc.wantLML)
		}
	}
}
