package distflow

// Iteration-budget regression test: the BENCH_seed workload (the same
// graph, queries, and accuracy recorded in BENCH_seed.json /
// BENCH_accel.json) must solve within a fixed gradient-iteration
// ceiling. Iteration counts are hardware-independent and — for a fixed
// seed — fully deterministic, so this pins the solver's algorithmic
// efficiency even on 1-CPU CI runners where wall-clock assertions are
// meaningless. The pre-acceleration baseline spent 3854 iterations
// (BENCH_seed.json); the accelerated stepper with the measured residual
// certificate spends 1246 today (BENCH_accel.json, recorded before
// later last-ulp soft-max changes, has 1408). The ceiling sits between
// the baseline and today's count with headroom for benign numeric
// drift, so any regression that costs the 2× win fails here.

import (
	"math/rand"
	"testing"

	"distflow/internal/graph"
)

// iterationCeiling is the recorded budget for the benchmark workload:
// measured 1246 iterations, ceiling 1700 (≤ half the 3854-iteration
// seed baseline, preserving the ≥2× claim).
const iterationCeiling = 1700

func TestIterationBudgetOnBenchWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("n=2500 benchmark graph in short mode")
	}
	const (
		n       = 2500
		degree  = 8.0
		maxCap  = 64
		seed    = 3
		queries = 8
		epsilon = 0.5
	)
	rng := rand.New(rand.NewSource(seed))
	gg := graph.CapUniform(graph.GNP(n, degree/n, rng), maxCap, rng)
	G := NewGraph(gg.N())
	for _, e := range gg.Edges() {
		G.AddEdge(e.U, e.V, e.Cap)
	}
	r, err := NewRouter(G, Options{Epsilon: epsilon, Seed: seed, DisableWarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	// The exact workload of cmd/bench -flow: distinct random pairs from
	// seed+1.
	qrng := rand.New(rand.NewSource(seed + 1))
	var pairs []STPair
	for len(pairs) < queries {
		s, tt := qrng.Intn(G.N()), qrng.Intn(G.N())
		if s != tt {
			pairs = append(pairs, STPair{S: s, T: tt})
		}
	}
	total := 0
	for _, p := range pairs {
		res, err := r.MaxFlow(p.S, p.T)
		if err != nil {
			t.Fatalf("query %d->%d: %v", p.S, p.T, err)
		}
		total += res.Iterations
	}
	t.Logf("workload iterations: %d (ceiling %d, seed baseline 3854)", total, iterationCeiling)
	if total > iterationCeiling {
		t.Fatalf("iteration budget exceeded: %d > %d — the solver regressed algorithmically", total, iterationCeiling)
	}
}
