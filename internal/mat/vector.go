package mat

import (
	"fmt"
	"math"
)

// Dot returns the inner product of a and b.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	// Two-pass scaling avoids overflow for extreme magnitudes.
	var mx float64
	for _, v := range x {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	if mx == 0 {
		return 0
	}
	var s float64
	for _, v := range x {
		r := v / mx
		s += r * r
	}
	return mx * math.Sqrt(s)
}

// SqDist returns the squared Euclidean distance between a and b.
func SqDist(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: SqDist length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i, v := range a {
		d := v - b[i]
		s += d * d
	}
	return s
}

// AxpyTo stores y + alpha*x into dst. dst may alias y or x.
func AxpyTo(dst []float64, alpha float64, x, y []float64) {
	if len(x) != len(y) || len(dst) != len(x) {
		panic("mat: AxpyTo length mismatch")
	}
	for i := range dst {
		dst[i] = y[i] + alpha*x[i]
	}
}

// ScaleVec multiplies every element of x by alpha in place.
func ScaleVec(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// CopyVec returns a copy of x.
func CopyVec(x []float64) []float64 {
	out := make([]float64, len(x))
	copy(out, x)
	return out
}

// SubVec returns a-b as a new slice.
func SubVec(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic("mat: SubVec length mismatch")
	}
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// MaxVec returns the maximum element of x and its index. It panics on an
// empty slice.
func MaxVec(x []float64) (float64, int) {
	if len(x) == 0 {
		panic("mat: MaxVec of empty slice")
	}
	best, idx := x[0], 0
	for i, v := range x[1:] {
		if v > best {
			best, idx = v, i+1
		}
	}
	return best, idx
}

// SumVec returns the sum of elements of x using Neumaier-compensated
// summation, which stays accurate even when partial sums cancel.
func SumVec(x []float64) float64 {
	var sum, comp float64
	for _, v := range x {
		t := sum + v
		if math.Abs(sum) >= math.Abs(v) {
			comp += (sum - t) + v
		} else {
			comp += (v - t) + sum
		}
		sum = t
	}
	return sum + comp
}

// AllFinite reports whether every element of x is finite.
func AllFinite(x []float64) bool {
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
