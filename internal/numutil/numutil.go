// Package numutil provides numerically stable primitives used by the
// gradient-descent flow solver: the symmetric soft-max from Sherman's
// framework, log-sum-exp, and small arithmetic helpers.
//
// The soft-max of a vector y is
//
//	smax(y) = log Σ_i (e^{y_i} + e^{-y_i}),
//
// a differentiable overestimate of max_i |y_i| that is tight up to an
// additive log(2k). Potentials in AlmostRoute are Θ(ε⁻¹ log n), so the raw
// exponentials overflow float64 for small ε; every function here evaluates
// in shifted form.
package numutil

import (
	"math"

	"distflow/internal/par"
)

// SoftMax returns smax(y) = log Σ_i (e^{y_i} + e^{-y_i}) evaluated stably.
// For an empty slice it returns math.Inf(-1) (the log of an empty sum).
func SoftMax(y []float64) float64 {
	if len(y) == 0 {
		return math.Inf(-1)
	}
	m := 0.0
	for _, v := range y {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	var sum float64
	for _, v := range y {
		sum += math.Exp(v-m) + math.Exp(-v-m)
	}
	return m + math.Log(sum)
}

// SoftMaxGrad writes into grad the gradient of SoftMax at y:
//
//	∂smax/∂y_i = (e^{y_i} - e^{-y_i}) / Σ_j (e^{y_j} + e^{-y_j}).
//
// grad must have len(y). It returns the soft-max value as well, since the
// two are always needed together and share the shifted sum.
func SoftMaxGrad(y []float64, grad []float64) float64 {
	if len(grad) != len(y) {
		panic("numutil: grad length mismatch")
	}
	if len(y) == 0 {
		return math.Inf(-1)
	}
	m := 0.0
	for _, v := range y {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	var sum float64
	for i, v := range y {
		p := math.Exp(v - m)
		q := math.Exp(-v - m)
		sum += p + q
		grad[i] = p - q
	}
	inv := 1 / sum
	for i := range grad {
		grad[i] *= inv
	}
	return m + math.Log(sum)
}

// SoftMaxGradScaledPar is SoftMaxGrad evaluated chunk-parallel on the
// shared worker pool (internal/par) at the implicit vector
// y_i = f_i·scale_i, without materializing y: every chunk pass reads f
// and scale directly, fusing the element-wise scaling into the max
// shift, the shifted exponential sum, and the gradient scaling. grad
// receives ∂smax/∂y (not ∂/∂f). The chunked reduction order is fixed by
// len(f) alone, so the result is bit-identical at every worker count;
// it differs from the single-sweep SoftMaxGrad, which remains the
// reference for tests, in the last ulps and by the terms ExpPair drops
// (the shifted sum moves by less than len(f)·2⁻⁵³ relative). The three
// chunk bodies are the exported kernels ScaledAbsMax, ScaledExpPairs,
// and ScaleBy, which the sharded engine (internal/shard) runs over the
// same chunks.
func SoftMaxGradScaledPar(f, scale, grad []float64) float64 {
	if len(scale) != len(f) || len(grad) != len(f) {
		panic("numutil: scale/grad length mismatch")
	}
	if len(f) == 0 {
		return math.Inf(-1)
	}
	m := par.Max(len(f), func(lo, hi int) float64 {
		return ScaledAbsMax(f[lo:hi], scale[lo:hi])
	})
	sum := par.Sum(len(f), func(lo, hi int) float64 {
		return ScaledExpPairs(f[lo:hi], scale[lo:hi], grad[lo:hi], m)
	})
	inv := 1 / sum
	par.For(len(f), func(lo, hi int) { ScaleBy(grad[lo:hi], inv) })
	return m + math.Log(sum)
}

// ScaledAbsMax returns max_i |f_i·scale_i| (0 for an empty range): the
// max-shift partial of one SoftMaxGradScaledPar chunk.
func ScaledAbsMax(f, scale []float64) float64 {
	scale = scale[:len(f)]
	m := 0.0
	for i, v := range f {
		if a := math.Abs(v * scale[i]); a > m {
			m = a
		}
	}
	return m
}

// ScaledExpPairs writes the shifted gradient numerators
// grad_i = e^{y_i−m} − e^{−y_i−m} for y_i = f_i·scale_i and returns the
// range's shifted sum Σ_i (e^{y_i−m} + e^{−y_i−m}), each pair evaluated
// by ExpPair.
func ScaledExpPairs(f, scale, grad []float64, m float64) float64 {
	scale, grad = scale[:len(f)], grad[:len(f)]
	s := 0.0
	for i, v := range f {
		d, p := ExpPair(v*scale[i], m)
		s += p
		grad[i] = d
	}
	return s
}

// expFloor is the shifted exponent below which ExpPair drops a term:
// e^{−37.5} ≈ 5.2·10⁻¹⁷ < 2⁻⁵⁴. A shifted soft-max sum is at least 1
// (the entry with |y| = m contributes e^0), so a dropped term is below
// half an ulp of it.
const expFloor = -37.5

// ExpPair returns the shifted soft-max pair of one entry,
//
//	diff = e^{y−m} − e^{−y−m},  sum = e^{y−m} + e^{−y−m},
//
// taking the exponential only of terms whose shifted exponent is at
// least expFloor: with a = |y|, the pair is (0, 0) when a−m < expFloor,
// and the smaller term e^{−a−m} is 0 when −a−m < expFloor. When neither
// exponent is below the floor, the result is bit-identical to the two
// exponentials computed directly; each dropped term is below 2⁻⁵⁴. It
// is the only exponential on the gradient-iteration path: the φ1
// kernel ScaledExpPairs and the φ2 row kernel capprox.ExpPairsRow both
// evaluate their entries through it.
func ExpPair(y, m float64) (diff, sum float64) {
	a := math.Abs(y)
	if a-m < expFloor {
		return 0, 0
	}
	big := math.Exp(a - m)
	small := 0.0
	if !(-a-m < expFloor) { // a NaN exponent reaches Exp, as in the test above
		small = math.Exp(-a - m)
	}
	if y < 0 { // small − big is p − q to the bit, signed zero included
		return small - big, big + small
	}
	return big - small, big + small
}

// ScaleBy multiplies every element of x by c in place.
func ScaleBy(x []float64, c float64) {
	for i := range x {
		x[i] *= c
	}
}

// LogSumExp returns log Σ_i e^{y_i} evaluated stably.
func LogSumExp(y []float64) float64 {
	if len(y) == 0 {
		return math.Inf(-1)
	}
	m := math.Inf(-1)
	for _, v := range y {
		if v > m {
			m = v
		}
	}
	if math.IsInf(m, -1) {
		return m
	}
	var sum float64
	for _, v := range y {
		sum += math.Exp(v - m)
	}
	return m + math.Log(sum)
}

// AbsMax returns max_i |y_i|, or 0 for an empty slice.
func AbsMax(y []float64) float64 {
	m := 0.0
	for _, v := range y {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// Sgn returns -1, 0, or 1 according to the sign of x.
func Sgn(x float64) float64 {
	switch {
	case x > 0:
		return 1
	case x < 0:
		return -1
	default:
		return 0
	}
}

// CeilLog2 returns ⌈log₂ x⌉ for x ≥ 1, and 0 for x ≤ 1.
func CeilLog2(x int64) int {
	if x <= 1 {
		return 0
	}
	k := 0
	v := x - 1
	for v > 0 {
		v >>= 1
		k++
	}
	return k
}

// ILog2 returns ⌊log₂ x⌋ for x ≥ 1; it panics for x ≤ 0.
func ILog2(x int64) int {
	if x <= 0 {
		panic("numutil: ILog2 of non-positive value")
	}
	k := -1
	for x > 0 {
		x >>= 1
		k++
	}
	return k
}
