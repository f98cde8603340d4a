package capprox

import (
	"math/rand"
	"testing"

	"distflow/internal/graph"
	"distflow/internal/par"
)

// The construction is randomized but seed-reproducible: identical seeds
// must give identical hierarchies, capacities, and distortion
// measurements (what "with high probability" becomes under a fixed
// random tape).
func TestBuildDeterministic(t *testing.T) {
	g := graph.CapUniform(graph.Grid(7, 7), 9, rand.New(rand.NewSource(1)))
	build := func() *Approximator {
		a, err := Build(g, Config{}, rand.New(rand.NewSource(55)))
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	a, b := build(), build()
	if a.Alpha != b.Alpha || a.AlphaLow != b.AlphaLow {
		t.Fatalf("alpha mismatch: %v/%v vs %v/%v", a.Alpha, a.AlphaLow, b.Alpha, b.AlphaLow)
	}
	if len(a.Trees) != len(b.Trees) {
		t.Fatal("tree count mismatch")
	}
	for k := range a.Trees {
		for v := 0; v < a.Trees[k].N(); v++ {
			if a.Trees[k].Parent[v] != b.Trees[k].Parent[v] || a.Trees[k].Cap[v] != b.Trees[k].Cap[v] {
				t.Fatalf("tree %d differs at %d", k, v)
			}
		}
	}
	if a.Ledger.Total() != b.Ledger.Total() {
		t.Errorf("ledger totals differ: %d vs %d", a.Ledger.Total(), b.Ledger.Total())
	}
}

// Candidate evaluation runs tree- and candidate-parallel; the sampled
// hierarchy must still be a pure function of the master seed at every
// worker count (per-candidate PRNGs are seeded before the parallel
// region and the argmin selection runs in candidate order after it).
func TestBuildWorkerCountDeterminism(t *testing.T) {
	g := graph.CapUniform(graph.GNP(300, 8.0/300, rand.New(rand.NewSource(4))), 32, rand.New(rand.NewSource(5)))
	build := func(workers int) *Approximator {
		defer par.SetWorkers(par.SetWorkers(workers))
		a, err := Build(g, Config{}, rand.New(rand.NewSource(21)))
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	a, b, c := build(1), build(3), build(16)
	for _, other := range []*Approximator{b, c} {
		if a.Alpha != other.Alpha || a.AlphaLow != other.AlphaLow {
			t.Fatalf("alpha differs across worker counts: %v/%v vs %v/%v",
				a.Alpha, a.AlphaLow, other.Alpha, other.AlphaLow)
		}
		if len(a.Trees) != len(other.Trees) {
			t.Fatal("tree count differs across worker counts")
		}
		for k := range a.Trees {
			for v := 0; v < a.Trees[k].N(); v++ {
				if a.Trees[k].Parent[v] != other.Trees[k].Parent[v] ||
					a.Trees[k].Cap[v] != other.Trees[k].Cap[v] {
					t.Fatalf("tree %d differs at vertex %d across worker counts", k, v)
				}
			}
		}
		if a.Ledger.Total() != other.Ledger.Total() {
			t.Fatalf("ledger totals differ across worker counts: %d vs %d",
				a.Ledger.Total(), other.Ledger.Total())
		}
	}
}

// Different seeds must (overwhelmingly) give different trees — the
// distribution is non-degenerate, which Lemma 3.3's sampling argument
// needs.
func TestBuildSeedSensitivity(t *testing.T) {
	g := graph.CapUniform(graph.Grid(7, 7), 9, rand.New(rand.NewSource(1)))
	a, err := Build(g, Config{Trees: 1}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(2); seed < 8; seed++ {
		b, err := Build(g, Config{Trees: 1}, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < g.N(); v++ {
			if a.Trees[0].Parent[v] != b.Trees[0].Parent[v] {
				return // found a difference: distribution non-degenerate
			}
		}
	}
	t.Error("seven seeds produced identical virtual trees")
}
