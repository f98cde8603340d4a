package capprox

// PotentialRT fuses ApplyR → soft-max gradient → ApplyRT into per-tree
// sweeps. These tests pin it against the unfused composition (which
// remains the reference implementation) and its worker-count
// determinism.

import (
	"math"
	"math/rand"
	"testing"

	"distflow/internal/graph"
	"distflow/internal/numutil"
	"distflow/internal/par"
)

// unfusedPotentialRT reproduces the pre-fusion solver pipeline: flat
// scatter index over all non-root (tree, vertex) slots, SoftMaxGrad,
// then ApplyRTInto.
func unfusedPotentialRT(a *Approximator, r []float64, ta float64) (phi float64, pi []float64) {
	rr := a.ApplyR(r)
	var y []float64
	type slot struct{ k, v int }
	var slots []slot
	for k, t := range a.Trees {
		for v := 0; v < t.N(); v++ {
			if v != t.Root {
				slots = append(slots, slot{k, v})
				y = append(y, ta*rr[k][v])
			}
		}
	}
	grad := make([]float64, len(y))
	phi = numutil.SoftMaxGrad(y, grad)
	prices := make([][]float64, len(a.Trees))
	for k, t := range a.Trees {
		prices[k] = make([]float64, t.N())
	}
	for i, s := range slots {
		prices[s.k][s.v] = grad[i]
	}
	pi = a.ApplyRT(prices)
	return phi, pi
}

func fusedTestApproximator(t *testing.T, seed int64) (*graph.Graph, *Approximator) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := graph.CapUniform(graph.GNP(80, 0.1, rng), 16, rng)
	a, err := Build(g, Config{ExactCuts: true}, rand.New(rand.NewSource(seed+1)))
	if err != nil {
		t.Fatal(err)
	}
	return g, a
}

func TestPotentialRTMatchesUnfused(t *testing.T) {
	for trial := int64(0); trial < 3; trial++ {
		g, a := fusedTestApproximator(t, 100+trial)
		rng := rand.New(rand.NewSource(200 + trial))
		r := make([]float64, g.N())
		var sum float64
		for v := 1; v < g.N(); v++ {
			r[v] = rng.NormFloat64()
			sum += r[v]
		}
		r[0] = -sum
		for _, ta := range []float64{0.5, 4, 40} {
			scratch := a.NewEvalScratch()
			pi := make([]float64, g.N())
			phi := a.PotentialRT(r, ta, scratch, pi)
			wantPhi, wantPi := unfusedPotentialRT(a, r, ta)
			if math.Abs(phi-wantPhi) > 1e-9*math.Max(1, math.Abs(wantPhi)) {
				t.Fatalf("ta=%v: phi %v, unfused %v", ta, phi, wantPhi)
			}
			for v := range pi {
				if math.Abs(pi[v]-wantPi[v]) > 1e-9*math.Max(1, math.Abs(wantPi[v])) {
					t.Fatalf("ta=%v: pi[%d] = %v, unfused %v", ta, v, pi[v], wantPi[v])
				}
			}
		}
	}
}

// The fused evaluation must be bit-identical at every worker count.
func TestPotentialRTWorkerCountDeterminism(t *testing.T) {
	g, a := fusedTestApproximator(t, 300)
	r := make([]float64, g.N())
	rng := rand.New(rand.NewSource(301))
	var sum float64
	for v := 1; v < g.N(); v++ {
		r[v] = rng.NormFloat64()
		sum += r[v]
	}
	r[0] = -sum
	run := func(workers int) (float64, []float64) {
		defer par.SetWorkers(par.SetWorkers(workers))
		scratch := a.NewEvalScratch()
		pi := make([]float64, g.N())
		return a.PotentialRT(r, 7, scratch, pi), pi
	}
	wantPhi, wantPi := run(1)
	for _, w := range []int{2, 7} {
		phi, pi := run(w)
		if phi != wantPhi {
			t.Fatalf("workers=%d: phi %v, want %v", w, phi, wantPhi)
		}
		for v := range pi {
			if pi[v] != wantPi[v] {
				t.Fatalf("workers=%d: pi[%d] differs", w, v)
			}
		}
	}
}

// Extreme residual magnitudes must not overflow: the shifted
// exponentials keep the fused soft-max finite exactly like the
// reference.
func TestPotentialRTStability(t *testing.T) {
	g, a := fusedTestApproximator(t, 400)
	r := make([]float64, g.N())
	r[1] = 1e8
	r[2] = -1e8
	scratch := a.NewEvalScratch()
	pi := make([]float64, g.N())
	phi := a.PotentialRT(r, 100, scratch, pi)
	if math.IsInf(phi, 0) || math.IsNaN(phi) {
		t.Fatalf("phi = %v", phi)
	}
	for v, p := range pi {
		if math.IsInf(p, 0) || math.IsNaN(p) {
			t.Fatalf("pi[%d] = %v", v, p)
		}
	}
}

// In the gnp-cold regime (shift m ≈ 55) numutil.ExpPair drops most
// exponential terms; the fused evaluation must still stay within
// count·2⁻⁵³ of the SoftMaxGrad reference over count slots: φ relative
// to itself, and each π[v] — a sum of gradient entries over root paths,
// each weighted by 1/Scale — within count·2⁻⁵³·Σ 1/Scale.
func TestPotentialRTTruncationBound(t *testing.T) {
	g, a := fusedTestApproximator(t, 500)
	rng := rand.New(rand.NewSource(501))
	r := make([]float64, g.N())
	var sum float64
	for v := 1; v < g.N(); v++ {
		r[v] = rng.NormFloat64()
		sum += r[v]
	}
	r[0] = -sum
	rr := a.ApplyR(r)
	m1, weight := 0.0, 0.0
	count := 0
	for k, t := range a.Trees {
		for v := 0; v < t.N(); v++ {
			if v == t.Root {
				continue
			}
			count++
			m1 = math.Max(m1, math.Abs(rr[k][v]))
			if a.Scale[k][v] != 0 {
				weight += 1 / a.Scale[k][v]
			}
		}
	}
	ta := 55 / m1
	dropped := 0
	for k, t := range a.Trees {
		for v := 0; v < t.N(); v++ {
			if v != t.Root && ta*math.Abs(rr[k][v])-55 < -37.5 {
				dropped++
			}
		}
	}
	if dropped < count/10 {
		t.Fatalf("only %d of %d slots below the exp floor", dropped, count)
	}
	pi := make([]float64, g.N())
	phi := a.PotentialRT(r, ta, a.NewEvalScratch(), pi)
	wantPhi, wantPi := unfusedPotentialRT(a, r, ta)
	tol := float64(count) * 0x1p-53
	if math.Abs(phi-wantPhi) > tol*math.Abs(wantPhi) {
		t.Fatalf("phi %v, reference %v (tolerance %v relative)", phi, wantPhi, tol)
	}
	for v := range pi {
		if math.Abs(pi[v]-wantPi[v]) > tol*weight {
			t.Fatalf("pi[%d] = %v, reference %v (tolerance %v)", v, pi[v], wantPi[v], tol*weight)
		}
	}
}
