package main

import (
	"math"
	"sort"
)

// tailMin is the number of samples that must lie beyond the reported
// tail percentile: a tail read off fewer samples is mostly noise.
const tailMin = 10

// Latency summarizes a set of latency samples: the median, a tail
// percentile, and the mean of the samples beyond it. Each workload
// fixes its tail percentile, so that runs of different commits read
// the same percentile; a run with too few samples for it reads the
// highest percentile that still has tailMin samples beyond it, and one
// with fewer than 2·tailMin samples falls back to the median
// (MedianOnly). The benchmark reports TailMean as the tail: a single
// order statistic in the sparse upper range jumps between neighbouring
// samples from run to run, the mean of the samples beyond it does not.
type Latency struct {
	N          int
	P50        float64
	Tail       float64
	TailPct    float64 // percentile the tail was read at (50 on fallback)
	TailBeyond int     // samples strictly beyond the tail rank
	TailMean   float64 // mean of those samples (Tail when there are none)
	MedianOnly bool
}

// summarize computes the Latency of xs (any order; not modified) with
// the tail at percentile pct (nearest rank) or below it.
func summarize(xs []float64, pct float64) Latency {
	n := len(xs)
	if n == 0 {
		return Latency{MedianOnly: true, TailPct: 50}
	}
	s := sortedCopy(xs)
	l := Latency{N: n, P50: median(s)}
	k := min(int(math.Ceil(pct/100*float64(n))), n-tailMin) // 1-based rank
	if n < 2*tailMin {
		l.Tail, l.TailPct, l.MedianOnly = l.P50, 50, true
		l.TailBeyond = n / 2
	} else {
		l.Tail, l.TailPct, l.TailBeyond = s[k-1], 100*float64(k)/float64(n), n-k
	}
	l.TailMean = l.Tail
	if l.TailBeyond > 0 {
		l.TailMean = mean(s[n-l.TailBeyond:])
	}
	return l
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of an already sorted slice (mean of the middle pair for even
// lengths); NaN when empty.
func median(s []float64) float64 {
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianOf is median on an unsorted slice.
func medianOf(xs []float64) float64 { return median(sortedCopy(xs)) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// Tally counts attempted operations and the ones that failed. Errors,
// rejections and failed correctness checks all count as failures, and
// each check is an attempted operation of its own. A failed check also
// makes the run incorrect; an error or rejection alone does not.
type Tally struct {
	Attempted    int
	Failed       int
	ChecksFailed int
	// Reasons keeps the first few failure messages for the report.
	Reasons []string
}

// Op counts one operation of the program under test.
func (t *Tally) Op(err error) {
	t.Attempted++
	if err != nil {
		t.fail(err.Error())
	}
}

// Check counts one correctness check.
func (t *Tally) Check(err error) {
	t.Op(err)
	if err != nil {
		t.ChecksFailed++
	}
}

func (t *Tally) fail(msg string) {
	t.Failed++
	if len(t.Reasons) < 8 {
		t.Reasons = append(t.Reasons, msg)
	}
}

// Frac is failed ÷ attempted (0 when nothing was attempted).
func (t *Tally) Frac() float64 {
	if t.Attempted == 0 {
		return 0
	}
	return float64(t.Failed) / float64(t.Attempted)
}
