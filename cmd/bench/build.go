package main

// The -build mode benchmarks the Router construction path (the
// congestion-approximator build of Theorem 8.10) on the same workload
// as -flow: one large random graph, followed by the query stream issued
// once to fingerprint the build (value_sum must stay put when the build
// gets faster). The JSON document (schema 4) records a per-phase build
// breakdown — tree sampling, sparsifier, TreeFlow/cut-cap, α
// measurement — so future build regressions are attributable, plus the
// single-edge capacity-update ladder: the dirty-path refresh vs the
// full per-tree re-sweep vs a full rebuild, and the no-op early-return
// cost.
//
// BENCH_build_pre.json in the repository root is the pre-CSR baseline,
// BENCH_build.json the CSR run (schema 3), and BENCH_update.json the
// dirty-path ladder (schema 4).

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

// BuildBenchResult is the JSON document emitted by -build -json.
type BuildBenchResult struct {
	Schema     int             `json:"schema"`
	Mode       string          `json:"mode"`
	Config     FlowBenchConfig `json:"config"`
	GoMaxProcs int             `json:"go_max_procs"`
	NumCPU     int             `json:"num_cpu"`
	M          int             `json:"m"`

	// RouterBuildSeconds is the wall clock of one NewRouter call.
	RouterBuildSeconds float64 `json:"router_build_seconds"`
	Alpha              float64 `json:"alpha"`
	Trees              int     `json:"trees"`
	// Phases is the per-phase breakdown of the build (per-tree phases
	// are summed per-tree durations, i.e. CPU seconds).
	Phases distflow.BuildBreakdown `json:"build_phases"`

	// Serving fingerprint: the -flow query workload issued once,
	// sequentially, against the built router (warm cache disabled).
	// A build change that alters results moves ValueSum.
	ValueSum   float64 `json:"value_sum"`
	Iterations int     `json:"iterations"`

	// Incremental update ladder (schema 4): the same single-edge
	// capacity edits applied via Router.UpdateCapacities down three
	// rungs — the dirty-path refresh (default), the full per-tree
	// TreeFlow re-sweep (Options.UpdateDirtyFraction < 0, the PR 3
	// behavior), and a full NewRouter rebuild of the edited graph.
	UpdateEdits int `json:"update_edits,omitempty"`
	// DirtyUpdateSeconds is the per-edit wall clock of the dirty-path
	// update (O(edits × depth) patching along the edited tree paths).
	DirtyUpdateSeconds float64 `json:"dirty_update_seconds,omitempty"`
	// FullUpdateSeconds is the per-edit wall clock with the dirty path
	// disabled: one full TreeFlow sweep per tree.
	FullUpdateSeconds float64 `json:"full_update_seconds,omitempty"`
	// RebuildSeconds is one NewRouter call on the edited graph.
	RebuildSeconds float64 `json:"rebuild_seconds,omitempty"`
	// NoopUpdateSeconds is the per-call cost of a batch that coalesces
	// to nothing (the early return: no sweep, no solver reset).
	NoopUpdateSeconds      float64 `json:"noop_update_seconds,omitempty"`
	UpdateSpeedupVsFull    float64 `json:"update_speedup_vs_full,omitempty"`
	UpdateSpeedupVsRebuild float64 `json:"update_speedup_vs_rebuild,omitempty"`
	// UpdateMaxValueErr is the largest relative deviation between the
	// updated router's query values and a freshly built router's on the
	// edited graph (both (1+ε)-approximate; the property test pins the
	// Dinic bound, this field just records the drift).
	UpdateMaxValueErr float64 `json:"update_max_value_err"`
}

func runBuildBench(cfg FlowBenchConfig, jsonPath string, buildCeiling, updateCeiling float64) error {
	if cfg.N < 2 {
		return fmt.Errorf("-build needs -n >= 2")
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
	res := BuildBenchResult{
		Schema:     benchSchema,
		Mode:       "build",
		Config:     cfg,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		M:          G.M(),
	}
	fmt.Printf("build bench: n=%d m=%d eps=%v workers=%d GOMAXPROCS=%d\n",
		G.N(), G.M(), cfg.Epsilon, cfg.Workers, res.GoMaxProcs)

	opts := distflow.Options{Epsilon: cfg.Epsilon, Seed: cfg.Seed, DisableWarmStart: true}
	start := time.Now()
	r, err := distflow.NewRouter(G, opts)
	if err != nil {
		return err
	}
	res.RouterBuildSeconds = time.Since(start).Seconds()
	res.Alpha = r.Alpha()
	res.Trees = r.Trees()
	res.Phases = r.BuildBreakdown()
	fmt.Printf("  router build          %8.3fs (alpha=%.3f)\n", res.RouterBuildSeconds, res.Alpha)
	fmt.Printf("    tree sampling       %8.3fs (of which sparsifier %.3fs)\n",
		res.Phases.SampleSeconds, res.Phases.SparsifySeconds)
	fmt.Printf("    cut capacities      %8.3fs\n", res.Phases.CutCapSeconds)
	fmt.Printf("    alpha measurement   %8.3fs\n", res.Phases.AlphaSeconds)

	// Serving fingerprint on the -flow workload.
	pairs := flowBenchPairs(G.N(), cfg.Queries, cfg.Seed)
	for _, p := range pairs {
		fr, err := r.MaxFlow(p.S, p.T)
		if err != nil {
			return fmt.Errorf("fingerprint query %d-%d: %w", p.S, p.T, err)
		}
		res.ValueSum += fr.Value
		res.Iterations += fr.Iterations
	}
	fmt.Printf("  fingerprint           value sum %.6f (%d iterations)\n", res.ValueSum, res.Iterations)

	if err := runBuildBenchUpdate(r, G, cfg, opts, pairs, &res); err != nil {
		return err
	}

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
	if err := buildBudget.check(res.RouterBuildSeconds, buildCeiling); err != nil {
		return err
	}
	return updateBudget.check(res.DirtyUpdateSeconds, updateCeiling)
}

// runBuildBenchUpdate measures the single-edge update ladder: the same
// seed-chosen halving edits applied one at a time through (1) the
// dirty-path refresh on the serving router, (2) the full per-tree
// re-sweep on an identically built router over a twin graph, and (3)
// one NewRouter on the final edited graph; plus the per-call cost of a
// no-op batch, a dirty-vs-full α bit-identity check, and a query
// cross-check of updated-vs-fresh values.
func runBuildBenchUpdate(r *distflow.Router, G *distflow.Graph, cfg FlowBenchConfig, opts distflow.Options, pairs []distflow.STPair, res *BuildBenchResult) error {
	// The edit script: halve seed-chosen edges, drawn as a prefix of a
	// seeded permutation so every pick is a distinct edge whose halving
	// actually changes the capacity — a repeat pick or a cap-1 edge
	// would coalesce to a no-op and deflate the timed averages the
	// -update-ceiling gate watches. Tiny or all-unit-capacity graphs
	// cap the script at what is available.
	rng := rand.New(rand.NewSource(cfg.Seed + 2))
	type edit struct {
		e   int
		cap int64
	}
	script := make([]edit, 0, 5)
	for _, e := range rng.Perm(G.M()) {
		if len(script) == cap(script) {
			break
		}
		_, _, c := G.EdgeEndpoints(e)
		if c <= 1 {
			continue
		}
		script = append(script, edit{e: e, cap: c / 2})
	}
	edits := len(script)
	if edits == 0 {
		return nil
	}

	// Twin graph + router for the full-sweep rung, built before any
	// edit lands on G.
	twin := distflow.NewGraph(G.N())
	for e := 0; e < G.M(); e++ {
		u, v, c := G.EdgeEndpoints(e)
		twin.AddEdge(u, v, c)
	}
	optsFull := opts
	optsFull.UpdateDirtyFraction = -1
	rFull, err := distflow.NewRouter(twin, optsFull)
	if err != nil {
		return fmt.Errorf("full-sweep twin router: %w", err)
	}

	var dirtyTotal, fullTotal float64
	for i, ed := range script {
		start := time.Now()
		ur, err := r.UpdateCapacities([]distflow.CapEdit{{Edge: ed.e, Cap: ed.cap}})
		if err != nil {
			return fmt.Errorf("dirty update %d (edge %d): %w", i, ed.e, err)
		}
		dirtyTotal += time.Since(start).Seconds()
		if ur.Rebuilt {
			fmt.Printf("  dirty update %d fell back to a rebuild (alpha %.3f)\n", i, ur.Alpha)
		} else if ur.SweptTrees > 0 {
			fmt.Printf("  dirty update %d re-swept %d/%d trees\n", i, ur.SweptTrees, ur.SweptTrees+ur.DirtyTrees)
		}
		start = time.Now()
		uf, err := rFull.UpdateCapacities([]distflow.CapEdit{{Edge: ed.e, Cap: ed.cap}})
		if err != nil {
			return fmt.Errorf("full update %d (edge %d): %w", i, ed.e, err)
		}
		fullTotal += time.Since(start).Seconds()
		if !ur.Rebuilt && !uf.Rebuilt && ur.Alpha != uf.Alpha {
			return fmt.Errorf("update %d: dirty-path alpha %v differs from full sweep %v",
				i, ur.Alpha, uf.Alpha)
		}
	}
	res.UpdateEdits = edits
	res.DirtyUpdateSeconds = dirtyTotal / float64(edits)
	res.FullUpdateSeconds = fullTotal / float64(edits)

	// No-op rung: a batch restating the current capacities must cost
	// nothing (early return, warm cache kept).
	last := script[edits-1]
	start := time.Now()
	if _, err := r.UpdateCapacities([]distflow.CapEdit{{Edge: last.e, Cap: last.cap}}); err != nil {
		return fmt.Errorf("no-op update: %w", err)
	}
	res.NoopUpdateSeconds = time.Since(start).Seconds()

	start = time.Now()
	fresh, err := distflow.NewRouter(G, opts)
	if err != nil {
		return fmt.Errorf("rebuild on edited graph: %w", err)
	}
	res.RebuildSeconds = time.Since(start).Seconds()
	if res.DirtyUpdateSeconds > 0 {
		res.UpdateSpeedupVsFull = res.FullUpdateSeconds / res.DirtyUpdateSeconds
		res.UpdateSpeedupVsRebuild = res.RebuildSeconds / res.DirtyUpdateSeconds
	}

	for _, p := range pairs {
		a, err := r.MaxFlow(p.S, p.T)
		if err != nil {
			return fmt.Errorf("updated query %d-%d: %w", p.S, p.T, err)
		}
		b, err := fresh.MaxFlow(p.S, p.T)
		if err != nil {
			return fmt.Errorf("fresh query %d-%d: %w", p.S, p.T, err)
		}
		if b.Value != 0 {
			if d := math.Abs(a.Value-b.Value) / math.Abs(b.Value); d > res.UpdateMaxValueErr {
				res.UpdateMaxValueErr = d
			}
		}
	}
	fmt.Printf("  update ladder         dirty %8.5fs/edit | full sweep %8.5fs/edit (%.0fx) | rebuild %.3fs (%.0fx)\n",
		res.DirtyUpdateSeconds, res.FullUpdateSeconds, res.UpdateSpeedupVsFull,
		res.RebuildSeconds, res.UpdateSpeedupVsRebuild)
	fmt.Printf("  no-op update          %8.6fs (early return; max value drift %.2f%%)\n",
		res.NoopUpdateSeconds, 100*res.UpdateMaxValueErr)
	return nil
}
