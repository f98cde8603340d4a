package sherman

// Correctness tests for the stepper: the default accelerated
// (Nesterov-schedule) stepper with potential-monotonicity restarts, the
// plain backtracking stepper, and the ε-continuation schedule. Every
// configuration must keep the
// converged flow within the (1+ε)² band of the exact Dinic optimum on
// the fuzz-corpus graph family, whether or not restarts fire.

import (
	"math"
	"math/rand"
	"testing"

	"distflow/internal/capprox"
	"distflow/internal/graph"
	"distflow/internal/seqflow"
)

// corpusGraphs mirrors the FuzzMaxFlow corpus shape: small connected
// random multigraphs with a spanning chain plus random extra edges.
func corpusGraphs(t *testing.T, count int, seed int64) []*graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	gs := make([]*graph.Graph, 0, count)
	for i := 0; i < count; i++ {
		n := 6 + rng.Intn(14)
		g := graph.New(n)
		for v := 1; v < n; v++ {
			g.AddEdge(v, rng.Intn(v), 1+rng.Int63n(9))
		}
		for k := 0; k < n; k++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.AddEdge(u, v, 1+rng.Int63n(9))
			}
		}
		gs = append(gs, g)
	}
	return gs
}

// checkWithinBand solves s-t max flow under cfg and asserts feasibility
// and the (1+ε)² value band against Dinic. It returns the result for
// further assertions.
func checkWithinBand(t *testing.T, g *graph.Graph, cfg Config, label string) *FlowResult {
	t.Helper()
	s, tt := 0, g.N()-1
	want := float64(seqflow.MinCutValue(g, s, tt))
	apx, err := capprox.Build(g, capprox.Config{ExactCuts: true}, rand.New(rand.NewSource(99)))
	if err != nil {
		t.Fatal(err)
	}
	r, err := MaxFlow(g, apx, s, tt, cfg)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	eps := cfg.Epsilon
	if eps == 0 {
		eps = 0.5
	}
	capEx, consErr := seqflow.CheckFlow(g, r.Flow, s, tt, r.Value)
	if capEx > 1e-9 || consErr > 1e-6 {
		t.Fatalf("%s: infeasible flow: capEx=%v consErr=%v", label, capEx, consErr)
	}
	if r.Value > want*1.0001 {
		t.Fatalf("%s: value %v exceeds OPT %v", label, r.Value, want)
	}
	if r.Value < want/((1+eps)*(1+eps))-1e-9 {
		t.Fatalf("%s: value %v below (1+ε)² band of OPT %v", label, r.Value, want)
	}
	return r
}

// The accelerated stepper (the default) stays within the guarantee on
// the corpus family. The potential-monotonicity safeguard must fire on
// at least part of the corpus so the restart path is exercised; the
// restart-free regime is pinned by TestPlainStepperNoRestarts.
func TestAcceleratedCorrectness(t *testing.T) {
	sawRestarts := false
	for _, g := range corpusGraphs(t, 8, 71) {
		r := checkWithinBand(t, g, Config{Epsilon: 0.3}, "accel")
		if r.Restarts > 0 {
			sawRestarts = true
		}
	}
	if !sawRestarts {
		t.Error("no corpus run fired a momentum restart; safeguard untested")
	}
}

// Disabling acceleration restores the plain monotone stepper: no
// restarts can fire, and the guarantee still holds.
func TestPlainStepperNoRestarts(t *testing.T) {
	for _, g := range corpusGraphs(t, 5, 53) {
		r := checkWithinBand(t, g, Config{Epsilon: 0.3, DisableAcceleration: true}, "plain")
		if r.Restarts != 0 {
			t.Fatalf("plain stepper fired %d restarts", r.Restarts)
		}
	}
}

// ε-continuation at a tight target (levels 0.36, 0.12): the schedule
// must preserve the guarantee under both steppers.
func TestContinuationCorrectness(t *testing.T) {
	for _, g := range corpusGraphs(t, 4, 83) {
		a := checkWithinBand(t, g, Config{Epsilon: 0.12}, "continuation")
		b := checkWithinBand(t, g, Config{Epsilon: 0.12, DisableAcceleration: true}, "plain continuation")
		t.Logf("iterations: accelerated=%d plain=%d", a.Iterations, b.Iterations)
	}
}

// The continuation schedule ends exactly at the requested accuracy,
// coarsens by 3× per level, and keeps every coarser level below 0.6:
// ε = 0.2 gets no 0.6 level (0.2·3 is 0.6000000000000001 in floating
// point, and the bound is strict either way).
func TestContinuationLevels(t *testing.T) {
	cases := []struct {
		eps  float64
		want []float64
	}{
		{0.5, []float64{0.5}},
		{0.3, []float64{0.3}},
		{0.2, []float64{0.2}},
		{0.15, []float64{0.45, 0.15}},
		{0.1, []float64{0.3, 0.1}},
		{0.05, []float64{0.45, 0.15, 0.05}},
	}
	for _, c := range cases {
		got := continuationLevels(c.eps)
		if len(got) != len(c.want) {
			t.Fatalf("eps=%v: levels %v, want %v", c.eps, got, c.want)
		}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Fatalf("eps=%v: levels %v, want %v", c.eps, got, c.want)
			}
		}
	}
}

// AlmostRouteWarm started from the converged flow of a previous call
// terminates in a fraction of the cold iterations and still routes the
// demand to the same residual quality.
func TestAlmostRouteWarmStart(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	g := graph.CapUniform(graph.GNP(60, 0.12, rng), 12, rng)
	apx, err := capprox.Build(g, capprox.Config{ExactCuts: true}, rand.New(rand.NewSource(62)))
	if err != nil {
		t.Fatal(err)
	}
	s := NewSolver(g, apx)
	b := graph.STDemand(g.N(), 0, g.N()-1, 1)
	cold, err := s.AlmostRoute(b, 0.3, Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := s.AlmostRouteWarm(b, 0.3, Config{}, nil, cold.Flow)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Iterations > cold.Iterations {
		t.Errorf("warm start took %d iterations, cold %d", warm.Iterations, cold.Iterations)
	}
	div := g.Divergence(warm.Flow)
	resid := make([]float64, g.N())
	for v := range resid {
		resid[v] = b[v] - div[v]
	}
	if apx.NormRb(resid) > apx.NormRb(b) {
		t.Error("warm-started flow did not reduce the residual norm")
	}
	t.Logf("iterations: cold=%d warm=%d", cold.Iterations, warm.Iterations)
}
