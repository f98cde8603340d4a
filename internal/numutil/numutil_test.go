package numutil

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"distflow/internal/par"
)

func TestSoftMaxSmall(t *testing.T) {
	tests := []struct {
		name string
		y    []float64
		want float64
	}{
		{"zero", []float64{0}, math.Log(2)},
		{"one", []float64{1}, math.Log(math.E + 1/math.E)},
		{"sym", []float64{3, -3}, math.Log(2*math.Exp(3) + 2*math.Exp(-3))},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := SoftMax(tc.y)
			if math.Abs(got-tc.want) > 1e-12 {
				t.Errorf("SoftMax(%v) = %v, want %v", tc.y, got, tc.want)
			}
		})
	}
}

func TestSoftMaxEmpty(t *testing.T) {
	if got := SoftMax(nil); !math.IsInf(got, -1) {
		t.Errorf("SoftMax(nil) = %v, want -Inf", got)
	}
	if got := LogSumExp(nil); !math.IsInf(got, -1) {
		t.Errorf("LogSumExp(nil) = %v, want -Inf", got)
	}
}

// smax must dominate max|y_i| and be within log(2k) of it.
func TestSoftMaxBracketsMax(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		y := make([]float64, len(raw))
		for i, v := range raw {
			// Clamp quick-generated values into a sane range.
			y[i] = math.Mod(v, 50)
			if math.IsNaN(y[i]) {
				y[i] = 0
			}
		}
		s := SoftMax(y)
		m := AbsMax(y)
		upper := m + math.Log(2*float64(len(y)))
		return s >= m-1e-9 && s <= upper+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// SoftMax must not overflow for large inputs where naive exp would.
func TestSoftMaxLargeValues(t *testing.T) {
	y := []float64{5000, -4999, 4998}
	got := SoftMax(y)
	if math.IsInf(got, 1) || math.IsNaN(got) {
		t.Fatalf("SoftMax overflowed: %v", got)
	}
	if math.Abs(got-5000) > 1 {
		t.Errorf("SoftMax(%v) = %v, want ~5000", y, got)
	}
}

// Gradient checked against central finite differences.
func TestSoftMaxGradFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(8)
		y := make([]float64, n)
		for i := range y {
			y[i] = rng.NormFloat64() * 3
		}
		grad := make([]float64, n)
		SoftMaxGrad(y, grad)
		const h = 1e-6
		for i := 0; i < n; i++ {
			yp := append([]float64(nil), y...)
			ym := append([]float64(nil), y...)
			yp[i] += h
			ym[i] -= h
			fd := (SoftMax(yp) - SoftMax(ym)) / (2 * h)
			if math.Abs(fd-grad[i]) > 1e-5 {
				t.Fatalf("trial %d coord %d: grad %v, finite-diff %v (y=%v)", trial, i, grad[i], fd, y)
			}
		}
	}
}

func TestSoftMaxGradValueMatchesSoftMax(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(16)
		y := make([]float64, n)
		for i := range y {
			y[i] = rng.NormFloat64() * 10
		}
		grad := make([]float64, n)
		v1 := SoftMaxGrad(y, grad)
		v2 := SoftMax(y)
		if math.Abs(v1-v2) > 1e-12*math.Max(1, math.Abs(v2)) {
			t.Fatalf("value mismatch: %v vs %v", v1, v2)
		}
	}
}

func TestSoftMaxGradLenMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on grad length mismatch")
		}
	}()
	SoftMaxGrad([]float64{1, 2}, make([]float64, 1))
}

// Gradient entries are bounded by 1 in absolute value and sum of |g| <= 1.
func TestSoftMaxGradBounded(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		y := make([]float64, len(raw))
		for i, v := range raw {
			y[i] = math.Mod(v, 100)
			if math.IsNaN(y[i]) {
				y[i] = 0
			}
		}
		grad := make([]float64, len(y))
		SoftMaxGrad(y, grad)
		var sum float64
		for _, g := range grad {
			if math.Abs(g) > 1+1e-12 {
				return false
			}
			sum += math.Abs(g)
		}
		return sum <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestLogSumExp(t *testing.T) {
	y := []float64{1, 2, 3}
	want := math.Log(math.Exp(1) + math.Exp(2) + math.Exp(3))
	if got := LogSumExp(y); math.Abs(got-want) > 1e-12 {
		t.Errorf("LogSumExp = %v, want %v", got, want)
	}
	// Stability.
	if got := LogSumExp([]float64{10000, 9999}); math.IsInf(got, 1) {
		t.Error("LogSumExp overflowed")
	}
}

func TestSgn(t *testing.T) {
	tests := []struct {
		in   float64
		want float64
	}{{1.5, 1}, {-2, -1}, {0, 0}, {math.Copysign(0, -1), 0}}
	for _, tc := range tests {
		if got := Sgn(tc.in); got != tc.want {
			t.Errorf("Sgn(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestCeilLog2(t *testing.T) {
	tests := []struct {
		in   int64
		want int
	}{{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {1024, 10}, {1025, 11}}
	for _, tc := range tests {
		if got := CeilLog2(tc.in); got != tc.want {
			t.Errorf("CeilLog2(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestILog2(t *testing.T) {
	tests := []struct {
		in   int64
		want int
	}{{1, 0}, {2, 1}, {3, 1}, {4, 2}, {1023, 9}, {1024, 10}}
	for _, tc := range tests {
		if got := ILog2(tc.in); got != tc.want {
			t.Errorf("ILog2(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for ILog2(0)")
		}
	}()
	ILog2(0)
}

func TestAbsMax(t *testing.T) {
	if got := AbsMax(nil); got != 0 {
		t.Errorf("AbsMax(nil) = %v, want 0", got)
	}
	if got := AbsMax([]float64{-5, 3}); got != 5 {
		t.Errorf("AbsMax = %v, want 5", got)
	}
}

// SoftMaxGradScaledPar at y = f·scale must agree with the single-sweep
// reference evaluated on the materialized product, up to reduction-order
// ulps, and be bit-identical at every worker count.
func TestSoftMaxGradScaledParMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, n := range []int{1, 5, 4096, 9001} {
		f := make([]float64, n)
		scale := make([]float64, n)
		y := make([]float64, n)
		for i := range f {
			f[i] = rng.NormFloat64() * 20
			scale[i] = rng.Float64() + 0.01
			y[i] = f[i] * scale[i]
		}
		want := make([]float64, n)
		wantV := SoftMaxGrad(y, want)
		got := make([]float64, n)
		gotV := SoftMaxGradScaledPar(f, scale, got)
		if math.Abs(gotV-wantV) > 1e-12*math.Max(1, math.Abs(wantV)) {
			t.Fatalf("n=%d: value %v, want %v", n, gotV, wantV)
		}
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-12 {
				t.Fatalf("n=%d: grad[%d] = %v, want %v", n, i, got[i], want[i])
			}
		}
		run := func(workers int) float64 {
			defer par.SetWorkers(par.SetWorkers(workers))
			return SoftMaxGradScaledPar(f, scale, got)
		}
		w1 := run(1)
		for _, w := range []int{3, 8} {
			if v := run(w); v != w1 {
				t.Fatalf("n=%d workers=%d: %v != %v", n, w, v, w1)
			}
		}
	}
}

// twoExp is the pair ExpPair replaces: both exponentials, always.
func twoExp(y, m float64) (diff, sum float64) {
	p := math.Exp(y - m)
	q := math.Exp(-y - m)
	return p - q, p + q
}

// sameFloat reports bit equality, treating every NaN as equal.
func sameFloat(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// Whenever neither shifted exponent is below the floor, ExpPair is the
// two-exp expression bit for bit; otherwise it differs from it only by
// dropped terms, each below 2⁻⁵⁴.
func TestExpPairMatchesTwoExp(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	kept := 0
	for i := 0; i < 200000; i++ {
		m := rng.Float64() * 80
		if i%2 == 0 {
			m = rng.Float64() * 37.5 // the pair itself is never dropped
		}
		y := (2*rng.Float64() - 1) * m
		if i%7 == 0 {
			y = (2*rng.Float64() - 1) * 1e-12 // p and q agree
		}
		d, s := ExpPair(y, m)
		wd, ws := twoExp(y, m)
		if y-m >= expFloor && -y-m >= expFloor {
			kept++
			if !sameFloat(d, wd) || !sameFloat(s, ws) {
				t.Fatalf("ExpPair(%v, %v) = (%v, %v), two-exp (%v, %v)", y, m, d, s, wd, ws)
			}
			continue
		}
		if m < -expFloor && s == 0 {
			t.Fatalf("ExpPair(%v, %v) dropped the pair at m < %v", y, m, -expFloor)
		}
		if math.Abs(d-wd) > 0x1p-54 || math.Abs(s-ws) > 2*0x1p-54 {
			t.Fatalf("ExpPair(%v, %v) = (%v, %v), two-exp (%v, %v): dropped more than 2⁻⁵⁴ per term", y, m, d, s, wd, ws)
		}
	}
	if kept < 1000 {
		t.Fatalf("only %d samples exercised the bit-identical branch", kept)
	}
}

// ExpPair returns exactly (0, 0) if and only if the larger exponent
// |y|−m is below the floor, and then that term is below 2⁻⁵⁴.
func TestExpPairZeroOnlyBelowFloor(t *testing.T) {
	if math.Exp(expFloor) >= 0x1p-54 {
		t.Fatalf("e^expFloor = %v, not below 2⁻⁵⁴", math.Exp(expFloor))
	}
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 200000; i++ {
		m := rng.Float64() * 80
		y := (2*rng.Float64() - 1) * m
		if i%3 == 0 {
			// Straddle the floor to within a few ulps.
			y = math.Copysign(m+expFloor, y) + float64(rng.Intn(9)-4)*0x1p-48
		}
		a := math.Abs(y)
		d, s := ExpPair(y, m)
		zero := d == 0 && s == 0
		if zero != (a-m < expFloor) {
			t.Fatalf("ExpPair(%v, %v) = (%v, %v); |y|−m = %v, floor %v", y, m, d, s, a-m, expFloor)
		}
		if zero && math.Exp(a-m) >= math.Exp(expFloor) {
			t.Fatalf("ExpPair(%v, %v) dropped e^{|y|−m} = %v ≥ e^floor", y, m, math.Exp(a-m))
		}
	}
}

// Signed zeros, a zero shift, NaN and infinities come out exactly as
// the two-exp expression gives them.
func TestExpPairSpecialValues(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	negZero := math.Copysign(0, -1)
	ys := []float64{0, negZero, 1, -1, 1e-300, -1e-300, 40, -40, 800, -800, inf, -inf, nan}
	ms := []float64{0, negZero, 1, 40, 800, inf, -inf, nan}
	for _, y := range ys {
		for _, m := range ms {
			d, s := ExpPair(y, m)
			wd, ws := twoExp(y, m)
			if m <= 1 || math.IsInf(m, 0) || math.IsNaN(m) || math.IsNaN(y) || math.IsInf(y, 0) {
				// Any term dropped here is 0, NaN-absorbed, or below
				// e^{−73} of the term kept, so the match is exact.
				if !sameFloat(d, wd) || !sameFloat(s, ws) {
					t.Errorf("ExpPair(%v, %v) = (%v, %v), two-exp (%v, %v)", y, m, d, s, wd, ws)
				}
				continue
			}
			if math.Abs(d-wd) > 0x1p-54 || math.Abs(s-ws) > 2*0x1p-54 {
				t.Errorf("ExpPair(%v, %v) = (%v, %v), two-exp (%v, %v)", y, m, d, s, wd, ws)
			}
		}
	}
}

// gnpColdVector returns f and scale with y = f·scale spread like the
// soft-max inputs of a gnp-cold query (GNP n=2500, ε=0.5): the shift
// m = max|y| is ≈55, so the smaller exponential of every pair and both
// exponentials of most pairs fall below the floor.
func gnpColdVector(rng *rand.Rand, n int) (f, scale []float64) {
	f = make([]float64, n)
	scale = make([]float64, n)
	for i := range f {
		f[i] = rng.NormFloat64() * 12
		scale[i] = rng.Float64() + 0.5
	}
	f[n/3], scale[n/3] = -55, 1
	return f, scale
}

// In the gnp-cold regime the fused kernel drops terms, and still stays
// within len·2⁻⁵³ relative of the SoftMaxGrad reference: the value
// relative to itself, each gradient entry (at most 1 in magnitude)
// absolutely.
func TestSoftMaxGradScaledParTruncationBound(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{2500, 20000} {
		f, scale := gnpColdVector(rng, n)
		y := make([]float64, n)
		dropped := 0
		for i := range y {
			y[i] = f[i] * scale[i]
			if math.Abs(y[i])-55 < expFloor {
				dropped++
			}
		}
		if dropped < n/2 {
			t.Fatalf("n=%d: only %d of %d pairs below the floor", n, dropped, n)
		}
		want := make([]float64, n)
		wantV := SoftMaxGrad(y, want)
		got := make([]float64, n)
		gotV := SoftMaxGradScaledPar(f, scale, got)
		tol := float64(n) * 0x1p-53
		if math.Abs(gotV-wantV) > tol*math.Abs(wantV) {
			t.Fatalf("n=%d: value %v, reference %v (tolerance %v relative)", n, gotV, wantV, tol)
		}
		for i := range got {
			if math.Abs(got[i]-want[i]) > tol {
				t.Fatalf("n=%d: grad[%d] = %v, reference %v (tolerance %v)", n, i, got[i], want[i], tol)
			}
		}
	}
}
