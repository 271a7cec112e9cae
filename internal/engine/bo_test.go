package engine

import (
	"math"
	"testing"
)

// TestExpectedImprovementMath holds the closed-form checks of the
// acquisition function's internals.
func TestExpectedImprovementMath(t *testing.T) {
	// Degenerate sigma: EI = max(target-mu, 0).
	if got := expectedImprovement(1, 0.5, 0); got != 0.5 {
		t.Fatalf("EI = %g want 0.5", got)
	}
	if got := expectedImprovement(1, 2, 0); got != 0 {
		t.Fatalf("EI = %g want 0", got)
	}
	// Symmetric case: target == mu → EI = sigma/sqrt(2π).
	want := 0.7 / math.Sqrt(2*math.Pi)
	if got := expectedImprovement(0, 0, 0.7); math.Abs(got-want) > 1e-12 {
		t.Fatalf("EI = %g want %g", got, want)
	}
	// CDF sanity.
	if math.Abs(stdNormCDF(0)-0.5) > 1e-12 {
		t.Fatal("CDF(0) != 0.5")
	}
	if stdNormCDF(5) < 0.999 || stdNormCDF(-5) > 0.001 {
		t.Fatal("CDF tails wrong")
	}
}
