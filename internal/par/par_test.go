package par

import (
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
)

func TestForCoversRangeOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, grain - 1, grain, grain + 1, 10 * grain, 10*grain + 13} {
		hits := make([]int32, n)
		For(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, h)
			}
		}
	}
}

func TestDoCoversRangeOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 17, 1000} {
		hits := make([]int32, n)
		Do(n, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, h)
			}
		}
	}
}

// Sum and Max must be bit-identical at every worker count: the chunking
// depends only on n, and partials combine in chunk order.
func TestSumDeterministicAcrossWorkerCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, 5*grain+77)
	for i := range x {
		x[i] = rng.NormFloat64() * math.Exp(rng.NormFloat64()*5)
	}
	sum := func() float64 {
		return Sum(len(x), func(lo, hi int) float64 {
			s := 0.0
			for i := lo; i < hi; i++ {
				s += x[i]
			}
			return s
		})
	}
	max := func() float64 {
		return Max(len(x), func(lo, hi int) float64 {
			m := math.Inf(-1)
			for i := lo; i < hi; i++ {
				if x[i] > m {
					m = x[i]
				}
			}
			return m
		})
	}
	defer SetWorkers(SetWorkers(1))
	wantSum, wantMax := sum(), max()
	for _, w := range []int{1, 2, 3, 4, 8, 32} {
		SetWorkers(w)
		for rep := 0; rep < 5; rep++ {
			if got := sum(); got != wantSum {
				t.Fatalf("workers=%d: Sum=%v want %v", w, got, wantSum)
			}
			if got := max(); got != wantMax {
				t.Fatalf("workers=%d: Max=%v want %v", w, got, wantMax)
			}
		}
	}
}

func TestSumSmallInput(t *testing.T) {
	got := Sum(3, func(lo, hi int) float64 { return float64(hi - lo) })
	if got != 3 {
		t.Fatalf("Sum over 3 elements = %v", got)
	}
	if got := Sum(0, nil); got != 0 {
		t.Fatalf("empty Sum = %v", got)
	}
	if got := Max(0, nil); !math.IsInf(got, -1) {
		t.Fatalf("empty Max = %v", got)
	}
}

// Nested parallel regions must complete even when every pool worker is
// occupied: the caller always participates.
func TestNestedForCompletes(t *testing.T) {
	defer SetWorkers(SetWorkers(8))
	var total atomic.Int64
	Do(16, func(i int) {
		For(4*grain, func(lo, hi int) {
			total.Add(int64(hi - lo))
		})
	})
	if got := total.Load(); got != 16*4*grain {
		t.Fatalf("nested total = %d, want %d", got, 16*4*grain)
	}
}

func TestChunksPureFunctionOfN(t *testing.T) {
	for _, n := range []int{1, grain, grain + 1, maxChunks * grain * 3} {
		s1, c1 := chunks(n)
		SetWorkers(7)
		s2, c2 := chunks(n)
		SetWorkers(0)
		if s1 != s2 || c1 != c2 {
			t.Fatalf("chunks(%d) changed with worker count", n)
		}
		if c1 > 1 && (c1-1)*s1 >= n {
			t.Fatalf("chunks(%d) = (%d,%d): empty tail chunk", n, s1, c1)
		}
		if c1*s1 < n {
			t.Fatalf("chunks(%d) = (%d,%d): does not cover range", n, s1, c1)
		}
	}
}

func TestSetWorkersResets(t *testing.T) {
	prev := SetWorkers(3)
	if Workers() != 3 {
		t.Fatalf("Workers() = %d after SetWorkers(3)", Workers())
	}
	SetWorkers(0)
	if Workers() < 1 {
		t.Fatalf("Workers() = %d after reset", Workers())
	}
	SetWorkers(prev)
}

// FoldSum/FoldMax over partials computed on the Grid chunks reproduce
// Sum/Max bit for bit — at one chunk, two, and maxChunks — including
// the single-chunk shortcut that hands a lone partial back untouched
// (a -0 stays -0, a NaN stays NaN).
func TestFoldMatchesSumMax(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	check := func(n int, val func() float64) {
		t.Helper()
		size, count := Grid(n)
		partials := make([]float64, count)
		next := 0
		for c := range partials {
			lo, hi := Chunk(c, size, n)
			if lo != next || hi <= lo {
				t.Fatalf("n=%d: chunk %d is [%d,%d), want it to start at %d", n, c, lo, hi, next)
			}
			next = hi
			partials[c] = val()
		}
		if next != n {
			t.Fatalf("n=%d: chunks cover [0,%d)", n, next)
		}
		body := func(lo, _ int) float64 { return partials[lo/size] }
		if got, want := FoldSum(partials), Sum(n, body); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("n=%d (%d chunks): FoldSum = %v, Sum = %v", n, count, got, want)
		}
		if got, want := FoldMax(partials), Max(n, body); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("n=%d (%d chunks): FoldMax = %v, Max = %v", n, count, got, want)
		}
	}
	for _, count := range []int{1, 2, maxChunks} {
		n := count*grain - 1
		if _, c := Grid(n); c != count {
			t.Fatalf("n=%d: Grid reports %d chunks, want %d", n, c, count)
		}
		check(n, func() float64 { return rng.NormFloat64() * math.Exp(rng.NormFloat64()*5) })
	}
	for _, lone := range []float64{math.Copysign(0, -1), math.NaN()} {
		check(grain-1, func() float64 { return lone })
	}
}
