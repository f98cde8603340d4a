package main

// The -churn mode benchmarks dynamic topology churn on the serving
// router (DESIGN.md §8): a stream of batched structural edits — edge
// deletes and inserts, vertex adds with links, vertex removals —
// applied through Router.UpdateTopology, against the cost of rebuilding
// the router from scratch on the final graph. The JSON document
// (schema 5) records the per-batch update cost ladder
// (churn_update_seconds vs rebuild_seconds), the dirty/swept/resampled
// tree counters, the no-op elision cost, and the query drift between
// the incrementally updated router and a fresh rebuild on the same
// final graph. BENCH_churn.json in the repository root is the recorded
// n=2500 run; the -churn-ceiling flag turns the per-batch budget into a
// CI gate.

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	"distflow"
	"distflow/internal/graph"
)

// ChurnBenchResult is the JSON document emitted by -churn -json.
type ChurnBenchResult struct {
	Schema     int             `json:"schema"`
	Mode       string          `json:"mode"`
	Config     FlowBenchConfig `json:"config"`
	GoMaxProcs int             `json:"go_max_procs"`
	NumCPU     int             `json:"num_cpu"`
	M          int             `json:"m"`

	// RouterBuildSeconds is the wall clock of the initial NewRouter.
	RouterBuildSeconds float64 `json:"router_build_seconds"`

	// Batches is the number of topology batches applied; the Ops fields
	// count the edits across all of them.
	Batches          int `json:"churn_batches"`
	OpsEdgeDeletes   int `json:"ops_edge_deletes"`
	OpsEdgeInserts   int `json:"ops_edge_inserts"`
	OpsVertexAdds    int `json:"ops_vertex_adds"`
	OpsVertexRemoves int `json:"ops_vertex_removes"`

	// ChurnUpdateSeconds is the mean wall clock of one UpdateTopology
	// batch; ChurnUpdateMaxSeconds the worst batch (resamples land
	// here).
	ChurnUpdateSeconds    float64 `json:"churn_update_seconds"`
	ChurnUpdateMaxSeconds float64 `json:"churn_update_max_seconds"`
	// NoopTopoSeconds is the cost of a batch that elides to nothing.
	NoopTopoSeconds float64 `json:"noop_topo_seconds"`
	// RebuildSeconds is one NewRouter call on the final churned graph.
	RebuildSeconds float64 `json:"rebuild_seconds"`
	// SpeedupVsRebuild = RebuildSeconds / ChurnUpdateSeconds.
	SpeedupVsRebuild float64 `json:"churn_speedup_vs_rebuild"`

	// Tree-work counters summed over all batches.
	DirtyTrees     int `json:"dirty_trees_total"`
	SweptTrees     int `json:"swept_trees_total"`
	ResampledTrees int `json:"resampled_trees_total"`
	Rebuilds       int `json:"rebuilds_total"`

	// Final graph shape.
	FinalN     int `json:"final_n"`
	FinalLiveM int `json:"final_live_m"`
	FinalM     int `json:"final_m"`

	// Serving comparison on the final graph: the same query workload on
	// the incrementally updated router vs a fresh rebuild. Both are
	// (1+ε)-approximate; ChurnMaxValueErr is the largest relative
	// per-query deviation (the ≤ 0.1% acceptance gate), Escalations the
	// quality escalations the updated router needed.
	ValueSumUpdated  float64 `json:"value_sum_updated"`
	ValueSumRebuilt  float64 `json:"value_sum_rebuilt"`
	ChurnMaxValueErr float64 `json:"churn_max_value_err"`
	Escalations      int     `json:"escalations"`
	Alpha            float64 `json:"alpha"`
}

// churnScript deterministically generates and applies the benchmark's
// topology batches, timing each one.
func runChurnBench(cfg FlowBenchConfig, jsonPath string, churnCeiling float64) error {
	if cfg.N < 16 {
		return fmt.Errorf("-churn needs -n >= 16")
	}
	if cfg.Workers != 0 {
		distflow.SetParallelism(cfg.Workers)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	gg := graph.CapUniform(graph.GNP(cfg.N, cfg.Degree/float64(cfg.N), rng), cfg.MaxCap, rng)
	G := distflow.NewGraph(gg.N())
	for _, e := range gg.Edges() {
		G.AddEdge(e.U, e.V, e.Cap)
	}
	res := ChurnBenchResult{
		Schema:     benchSchema,
		Mode:       "churn",
		Config:     cfg,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		M:          G.M(),
	}
	fmt.Printf("churn bench: n=%d m=%d eps=%v workers=%d GOMAXPROCS=%d\n",
		G.N(), G.M(), cfg.Epsilon, cfg.Workers, res.GoMaxProcs)

	opts := distflow.Options{Epsilon: cfg.Epsilon, Seed: cfg.Seed, DisableWarmStart: true}
	start := time.Now()
	r, err := distflow.NewRouter(G, opts)
	if err != nil {
		return err
	}
	res.RouterBuildSeconds = time.Since(start).Seconds()
	fmt.Printf("  router build          %8.3fs (alpha=%.3f)\n", res.RouterBuildSeconds, r.Alpha())

	// The churn stream: 10 mixed batches drawn from a dedicated seed.
	// Deletions avoid bridges (checked against a DSU of the live graph);
	// inserts, vertex adds and removals target random live vertices.
	churnRng := rand.New(rand.NewSource(cfg.Seed + 3))
	res.Batches = 10
	var totalSec, maxSec float64
	for b := 0; b < res.Batches; b++ {
		batch := makeChurnBatch(G, churnRng, &res)
		start = time.Now()
		ur, err := r.UpdateTopology(batch)
		if err != nil {
			return fmt.Errorf("churn batch %d: %w", b, err)
		}
		sec := time.Since(start).Seconds()
		totalSec += sec
		if sec > maxSec {
			maxSec = sec
		}
		res.DirtyTrees += ur.DirtyTrees
		res.SweptTrees += ur.SweptTrees
		res.ResampledTrees += ur.ResampledTrees
		if ur.Rebuilt {
			res.Rebuilds++
		}
		if ur.ResampledTrees > 0 || ur.Rebuilt {
			fmt.Printf("  batch %2d: %6.2fms (%d edits, resampled %d trees%s)\n",
				b, 1000*sec, ur.Edits, ur.ResampledTrees, map[bool]string{true: ", REBUILT", false: ""}[ur.Rebuilt])
		}
	}
	res.ChurnUpdateSeconds = totalSec / float64(res.Batches)
	res.ChurnUpdateMaxSeconds = maxSec
	res.FinalN = G.N()
	res.FinalM = G.M()
	res.FinalLiveM = G.LiveM()
	res.Alpha = r.Alpha()
	fmt.Printf("  churn updates         %8.5fs/batch (max %.5fs; %d batches: -%d edges +%d edges +%d vertices -%d vertices)\n",
		res.ChurnUpdateSeconds, res.ChurnUpdateMaxSeconds, res.Batches,
		res.OpsEdgeDeletes, res.OpsEdgeInserts, res.OpsVertexAdds, res.OpsVertexRemoves)
	fmt.Printf("  tree work             dirty %d | swept %d | resampled %d | rebuilds %d\n",
		res.DirtyTrees, res.SweptTrees, res.ResampledTrees, res.Rebuilds)

	// No-op rung: deleting an already-dead edge elides to nothing.
	if dead := firstDeadEdge(G); dead >= 0 {
		start = time.Now()
		if _, err := r.UpdateTopology([]distflow.TopoEdit{distflow.DeleteEdgeEdit(dead)}); err != nil {
			return fmt.Errorf("no-op batch: %w", err)
		}
		res.NoopTopoSeconds = time.Since(start).Seconds()
	}

	// Rebuild rung: one fresh router on the final churned graph.
	start = time.Now()
	fresh, err := distflow.NewRouter(G, opts)
	if err != nil {
		return fmt.Errorf("rebuild on churned graph: %w", err)
	}
	res.RebuildSeconds = time.Since(start).Seconds()
	if res.ChurnUpdateSeconds > 0 {
		res.SpeedupVsRebuild = res.RebuildSeconds / res.ChurnUpdateSeconds
	}
	fmt.Printf("  ladder                churn %8.5fs/batch | rebuild %.3fs (%.0fx) | no-op %.6fs\n",
		res.ChurnUpdateSeconds, res.RebuildSeconds, res.SpeedupVsRebuild, res.NoopTopoSeconds)

	// Query drift: the -flow workload restricted to live vertices, on
	// the updated router vs the fresh rebuild.
	pairs := churnBenchPairs(G, cfg.Queries, cfg.Seed)
	for _, p := range pairs {
		a, err := r.MaxFlow(p.S, p.T)
		if err != nil {
			return fmt.Errorf("updated query %d-%d: %w", p.S, p.T, err)
		}
		b, err := fresh.MaxFlow(p.S, p.T)
		if err != nil {
			return fmt.Errorf("fresh query %d-%d: %w", p.S, p.T, err)
		}
		res.ValueSumUpdated += a.Value
		res.ValueSumRebuilt += b.Value
		res.Escalations += a.Escalations
		if b.Value != 0 {
			if d := math.Abs(a.Value-b.Value) / math.Abs(b.Value); d > res.ChurnMaxValueErr {
				res.ChurnMaxValueErr = d
			}
		}
	}
	fmt.Printf("  query drift           updated %.6f vs rebuilt %.6f (max %.3f%%, %d escalations)\n",
		res.ValueSumUpdated, res.ValueSumRebuilt, 100*res.ChurnMaxValueErr, res.Escalations)

	if jsonPath != "" {
		doc, err := json.MarshalIndent(&res, "", "  ")
		if err != nil {
			return err
		}
		doc = append(doc, '\n')
		if err := os.WriteFile(jsonPath, doc, 0o644); err != nil {
			return err
		}
		fmt.Printf("  wrote %s\n", jsonPath)
	}
	return churnBudget.check(res.ChurnUpdateSeconds, churnCeiling)
}

// makeChurnBatch draws one mixed batch: 4 bridge-safe edge deletions, 4
// edge inserts, one vertex add with 3 links, and (every other batch)
// one bridge-safe vertex removal.
func makeChurnBatch(G *distflow.Graph, rng *rand.Rand, res *ChurnBenchResult) []distflow.TopoEdit {
	var batch []distflow.TopoEdit
	dropped := map[int]bool{}
	for tries := 0; tries < 40 && countOps(batch, distflow.TopoDeleteEdge) < 4; tries++ {
		e := rng.Intn(G.M())
		_, _, c := G.EdgeEndpoints(e)
		if c == 0 || dropped[e] {
			continue
		}
		dropped[e] = true
		if !liveConnectedWithout(G, dropped, -1) {
			delete(dropped, e)
			continue
		}
		batch = append(batch, distflow.DeleteEdgeEdit(e))
		res.OpsEdgeDeletes++
	}
	for i := 0; i < 4; i++ {
		u, v := rng.Intn(G.N()), rng.Intn(G.N())
		if u != v && !G.Removed(u) && !G.Removed(v) {
			batch = append(batch, distflow.AddEdgeEdit(u, v, 1+rng.Int63n(8)))
			res.OpsEdgeInserts++
		}
	}
	var links []distflow.Link
	seen := map[int]bool{}
	for len(links) < 3 {
		a := rng.Intn(G.N())
		if !G.Removed(a) && !seen[a] {
			seen[a] = true
			links = append(links, distflow.Link{To: a, Cap: 1 + rng.Int63n(8)})
		}
	}
	batch = append(batch, distflow.AddVertexEdit(links...))
	res.OpsVertexAdds++
	if res.OpsVertexAdds%2 == 0 {
		for tries := 0; tries < 20; tries++ {
			v := rng.Intn(G.N())
			if !G.Removed(v) && liveConnectedWithout(G, dropped, v) {
				batch = append(batch, distflow.RemoveVertexEdit(v))
				res.OpsVertexRemoves++
				break
			}
		}
	}
	return batch
}

func countOps(batch []distflow.TopoEdit, op distflow.TopoOp) int {
	n := 0
	for _, e := range batch {
		if e.Op == op {
			n++
		}
	}
	return n
}

// liveConnectedWithout checks connectivity of the live graph minus the
// given edges and vertex via a DSU sweep.
func liveConnectedWithout(G *distflow.Graph, dropEdges map[int]bool, dropVertex int) bool {
	n := G.N()
	parent := make([]int, n)
	for v := range parent {
		parent[v] = v
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	active := 0
	for v := 0; v < n; v++ {
		if !G.Removed(v) && v != dropVertex {
			active++
		}
	}
	comps := active
	for e := 0; e < G.M(); e++ {
		u, v, c := G.EdgeEndpoints(e)
		if c == 0 || dropEdges[e] || u == dropVertex || v == dropVertex {
			continue
		}
		if ru, rv := find(u), find(v); ru != rv {
			parent[ru] = rv
			comps--
		}
	}
	return comps == 1
}

func firstDeadEdge(G *distflow.Graph) int {
	for e := 0; e < G.M(); e++ {
		if G.DeadEdge(e) {
			return e
		}
	}
	return -1
}

// churnBenchPairs derives the drift workload deterministically from the
// seed, restricted to live vertices of the final graph.
func churnBenchPairs(G *distflow.Graph, queries int, seed int64) []distflow.STPair {
	rng := rand.New(rand.NewSource(seed + 1))
	pairs := make([]distflow.STPair, 0, queries)
	for len(pairs) < queries {
		s, t := rng.Intn(G.N()), rng.Intn(G.N())
		if s != t && !G.Removed(s) && !G.Removed(t) {
			pairs = append(pairs, distflow.STPair{S: s, T: t})
		}
	}
	return pairs
}
