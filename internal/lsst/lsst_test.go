package lsst

import (
	"math"
	"math/rand"
	"testing"

	"distflow/internal/csr"
	"distflow/internal/graph"
)

// fromGraph converts a graph.Graph with unit lengths.
func fromGraph(g *graph.Graph) []Edge {
	edges := make([]Edge, g.M())
	for i, e := range g.Edges() {
		edges[i] = Edge{U: e.U, V: e.V, Len: 1}
	}
	return edges
}

func TestSpanningTreeSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := graph.Cycle(10)
	res, err := SpanningTree(g.N(), fromGraph(g), Config{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tree.N() != 10 {
		t.Fatalf("tree size %d", res.Tree.N())
	}
	// Every non-root vertex must map to a real input edge connecting it
	// to its parent.
	edges := fromGraph(g)
	for v := 0; v < 10; v++ {
		if v == res.Tree.Root {
			if res.EdgeOf[v] != -1 {
				t.Errorf("root EdgeOf = %d", res.EdgeOf[v])
			}
			continue
		}
		e := edges[res.EdgeOf[v]]
		p := res.Tree.Parent[v]
		if !(e.U == v && e.V == p) && !(e.V == v && e.U == p) {
			t.Errorf("vertex %d: edge %v does not connect to parent %d", v, e, p)
		}
	}
}

func TestSpanningTreeFamilies(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, fam := range graph.Families() {
		t.Run(fam.Name, func(t *testing.T) {
			g := fam.Make(150, rng)
			res, err := SpanningTree(g.N(), fromGraph(g), Config{}, rng)
			if err != nil {
				t.Fatal(err)
			}
			if res.Tree.N() != g.N() {
				t.Fatalf("tree spans %d of %d", res.Tree.N(), g.N())
			}
		})
	}
}

func TestSpanningTreeWeighted(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graph.GNP(80, 0.1, rng)
	edges := make([]Edge, g.M())
	for i, e := range g.Edges() {
		edges[i] = Edge{U: e.U, V: e.V, Len: math.Pow(2, float64(rng.Intn(20)))}
	}
	res, err := SpanningTree(g.N(), edges, Config{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	s := AverageStretch(res, edges)
	if s < 1-1e-9 {
		t.Errorf("average stretch %v < 1 (impossible)", s)
	}
}

// The headline property: on unit-length graphs the average stretch must
// stay well below n (a bad tree on a cycle has stretch ~n/3) and in the
// 2^{O(√(log n log log n))} ballpark. We assert a generous polylog-ish
// cap that a broken construction (e.g. a path tree on a random graph)
// would blow through.
func TestAverageStretchBound(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{64, 256, 512} {
		g := graph.GNP(n, 8.0/float64(n), rng)
		edges := fromGraph(g)
		res, err := SpanningTree(n, edges, Config{}, rng)
		if err != nil {
			t.Fatal(err)
		}
		s := AverageStretch(res, edges)
		bound := 8 * math.Pow(2, math.Sqrt(math.Log2(float64(n))*math.Log2(math.Log2(float64(n)))))
		if s > bound {
			t.Errorf("n=%d: average stretch %.2f exceeds %.2f", n, s, bound)
		}
	}
}

// Multigraph + contraction support (the Theorem 3.1 statement): parallel
// edges and repeated vertex ids must be handled.
func TestMultigraphParallelEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	edges := []Edge{
		{U: 0, V: 1, Len: 1},
		{U: 0, V: 1, Len: 5},
		{U: 1, V: 2, Len: 1},
		{U: 1, V: 2, Len: 2},
		{U: 2, V: 3, Len: 1},
	}
	res, err := SpanningTree(4, edges, Config{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tree.N() != 4 {
		t.Fatal("wrong size")
	}
}

func TestErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	if _, err := SpanningTree(0, nil, Config{}, rng); err == nil {
		t.Error("empty graph accepted")
	}
	if _, err := SpanningTree(2, []Edge{{U: 0, V: 5, Len: 1}}, Config{}, rng); err == nil {
		t.Error("out-of-range edge accepted")
	}
	if _, err := SpanningTree(2, []Edge{{U: 0, V: 1, Len: 0}}, Config{}, rng); err == nil {
		t.Error("zero length accepted")
	}
	// Disconnected input must fail, not loop.
	if _, err := SpanningTree(4, []Edge{{U: 0, V: 1, Len: 1}, {U: 2, V: 3, Len: 1}}, Config{}, rng); err == nil {
		t.Error("disconnected graph accepted")
	}
}

func TestSingleVertex(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	res, err := SpanningTree(1, nil, Config{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tree.N() != 1 {
		t.Error("singleton tree wrong")
	}
}

func TestAccountRoundsPositive(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := graph.Grid(8, 8)
	res, err := SpanningTree(g.N(), fromGraph(g), Config{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if r := res.AccountRounds(g.N(), g.Diameter()); r <= 0 {
		t.Errorf("AccountRounds = %d", r)
	}
	if res.PartitionCalls < res.Iterations {
		t.Errorf("PartitionCalls %d < Iterations %d", res.PartitionCalls, res.Iterations)
	}
}

// Expected stretch across seeds stays sane on the hard instance for tree
// embeddings (the cycle: any spanning tree stretches one edge to n-1,
// but the *average* stays ~2 because only one edge is stretched).
func TestCycleAverageStretch(t *testing.T) {
	n := 128
	g := graph.Cycle(n)
	edges := fromGraph(g)
	var total float64
	const seeds = 10
	for s := int64(0); s < seeds; s++ {
		rng := rand.New(rand.NewSource(100 + s))
		res, err := SpanningTree(n, edges, Config{}, rng)
		if err != nil {
			t.Fatal(err)
		}
		total += AverageStretch(res, edges)
	}
	avg := total / seeds
	// One edge of stretch n-1 out of n edges contributes ~1 on average;
	// anything beyond ~3 means the construction is broken.
	if avg > 3.5 {
		t.Errorf("cycle average stretch %.2f too high", avg)
	}
}

func TestConfigOverrides(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := graph.Grid(6, 6)
	res, err := SpanningTree(g.N(), fromGraph(g), Config{ZExponent: 2, MaxRestarts: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Z <= 4 {
		t.Errorf("Z = %v, want > 4 with exponent 2", res.Z)
	}
}

// buildCSR assembles the working-graph CSR the way lsst.go does, so the
// race can be driven directly.
func buildCSR(n int, edges []Edge) ([]int32, []splitEdge) {
	off := make([]int32, n+1)
	for _, e := range edges {
		off[e.U]++
		off[e.V]++
	}
	total := csr.Offsets(off)
	arcs := make([]splitEdge, total)
	for i, e := range edges {
		se := splitEdge{u: int32(e.U), v: int32(e.V), id: int32(i)}
		arcs[off[e.U]] = se
		off[e.U]++
		arcs[off[e.V]] = se
		off[e.V]++
	}
	csr.Shift(off)
	return off, arcs
}

// The bucket queue (RaceOrderVersion 2) and the heap (version 1) are the
// same priority queue up to the order among fully equal (time, source)
// keys — and the cluster assignment is provably invariant under that
// residual order: a node is claimed by the minimal key targeting it, all
// items carrying that key share one source, and depth = time − delay is
// a function of the claim. So the two implementations must produce
// bit-identical cluster and depth arrays on every input; only the race
// trees (parent/parentEdge) may differ. This is the exactness check that
// pins the bucket queue to Fig. 4 rather than to "some BFS".
func TestRaceBucketMatchesHeapClusters(t *testing.T) {
	for _, n := range []int{40, 200} {
		g := graph.GNP(n, 6.0/float64(n), rand.New(rand.NewSource(int64(n))))
		edges := fromGraph(g)
		off, arcs := buildCSR(n, edges)
		for _, rho := range []int{4, 8, 16, 32} {
			if rho >= n {
				continue // component shortcut: trivially identical
			}
			for seed := int64(0); seed < 5; seed++ {
				var wsB, wsH splitWS
				rb := splitGraph(n, off, arcs, rho, rand.New(rand.NewSource(seed)), &wsB, raceWithBuckets)
				rh := splitGraph(n, off, arcs, rho, rand.New(rand.NewSource(seed)), &wsH, raceWithHeap)
				if rb.maxDepth != rh.maxDepth {
					t.Fatalf("n=%d rho=%d seed=%d: maxDepth %d (bucket) vs %d (heap)", n, rho, seed, rb.maxDepth, rh.maxDepth)
				}
				for v := 0; v < n; v++ {
					if rb.cluster[v] != rh.cluster[v] {
						t.Fatalf("n=%d rho=%d seed=%d: cluster[%d] = %d (bucket) vs %d (heap)",
							n, rho, seed, v, rb.cluster[v], rh.cluster[v])
					}
					if rb.depth[v] != rh.depth[v] {
						t.Fatalf("n=%d rho=%d seed=%d: depth[%d] = %d (bucket) vs %d (heap)",
							n, rho, seed, v, rb.depth[v], rh.depth[v])
					}
				}
			}
		}
	}
}

// treeFingerprint hashes the tree structure (parent + supporting edge
// per vertex) — the part of the output the race pop order can move.
func treeFingerprint(res *Result) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for v := 0; v < res.Tree.N(); v++ {
		h = (h ^ uint64(uint32(res.Tree.Parent[v]))) * prime
		h = (h ^ uint64(uint32(res.EdgeOf[v]))) * prime
	}
	return h
}

// The race must be a deterministic function of (input, seed): two runs
// with the same seed produce bit-identical trees.
func TestRaceDeterminism(t *testing.T) {
	g := graph.GNP(300, 8.0/300, rand.New(rand.NewSource(42)))
	edges := fromGraph(g)
	t.Run("bucket", func(t *testing.T) {
		a, err := SpanningTree(g.N(), edges, Config{}, rand.New(rand.NewSource(7)))
		if err != nil {
			t.Fatal(err)
		}
		b, err := SpanningTree(g.N(), edges, Config{}, rand.New(rand.NewSource(7)))
		if err != nil {
			t.Fatal(err)
		}
		if fa, fb := treeFingerprint(a), treeFingerprint(b); fa != fb {
			t.Fatalf("bucket race not deterministic: %x vs %x", fa, fb)
		}
	})
}

// The version-2 fingerprint: the pop order among equal keys is part of
// the output distribution, so changing it silently would move every
// committed BENCH baseline. This pins the version-2 tree on one fixed
// input; if an intentional order change trips it, bump RaceOrderVersion,
// re-record this constant AND the BENCH baselines (DESIGN.md §10).
func TestRaceOrderVersionFingerprint(t *testing.T) {
	if RaceOrderVersion != 2 {
		t.Fatalf("RaceOrderVersion = %d; this fingerprint pins version 2", RaceOrderVersion)
	}
	g := graph.GNP(200, 8.0/200, rand.New(rand.NewSource(11)))
	res, err := SpanningTree(g.N(), fromGraph(g), Config{}, rand.New(rand.NewSource(13)))
	if err != nil {
		t.Fatal(err)
	}
	const want = uint64(0xccb2d418862394b4)
	if got := treeFingerprint(res); got != want {
		t.Fatalf("version-%d tree fingerprint = %#x, recorded %#x — if the pop order changed on purpose, bump RaceOrderVersion and re-record (see DESIGN.md §10)",
			RaceOrderVersion, got, want)
	}
}
