package main

// The -flow mode benchmarks the end-to-end solver on a single large
// random graph: congestion-approximator construction, then a stream of
// max-flow queries issued one at a time (the sequential reference),
// the same queries through Router.MaxFlowBatch, and a warm-repeat pass
// that re-issues them against the Router's warm cache. Results can be
// written as JSON (-json) so that successive runs are diffable;
// BENCH_seed.json in the repository root is the pre-parallel-core
// baseline and BENCH_accel.json the accelerated-stepper run recorded
// with -compare.
//
// The schema of the JSON document is versioned here (benchSchema): v2
// fixes the config key order to the FlowBenchConfig struct order below
// (v1 files were recorded with inconsistent orders), adds per-query
// statistics, the warm-repeat pass, the -compare baseline block, and
// the batch worker-count determinism check. v3 adds the -build document
// (mode:"build", see build.go) with the per-phase construction
// breakdown and the incremental-update-vs-rebuild measurements; the
// -flow document is unchanged apart from the version bump. v4 replaces
// the -build document's single update measurement with the
// dirty-vs-full-vs-rebuild ladder (dirty_update_seconds /
// full_update_seconds / rebuild_seconds, see build.go); again the
// -flow document only bumps the version. v5 adds the -churn document
// (mode:"churn", see churn.go) with the batched topology-edit vs
// full-rebuild ladder (churn_update_seconds / rebuild_seconds), the
// resample/sweep counters, and the updated-vs-rebuilt query drift; the
// -flow and -build documents only bump the version. v6 adds the -serve
// document (mode:"serve", see serve.go) with the sustained-load
// throughput/latency block (qps, serve_p50_seconds, serve_p99_seconds),
// the scheduler counters (coalesced/batches/rejected), and the
// quiesced-vs-rebuilt drift (serve_max_value_err); the other documents
// only bump the version. v7 adds the -scale document (mode:"scale",
// see scale.go) — a flat map with per-rung `_n{n}` keys carrying the
// instance-ladder phase times, heap deltas/peaks, and per-rung
// fingerprints — AND changes the recorded distributions of every mode:
// the SplitGraph race switched from a binary heap to a bucket queue
// (lsst.RaceOrderVersion 2), which reorders pops among fully equal
// (time, source) keys, so all value_sum/alpha/iteration baselines were
// re-recorded at v7 (see DESIGN.md §10). v9 adds the -shard document
// (mode:"shard", see shard.go) — a flat map with per-rung `_n{n}` and
// per-shard-count `_p{p}_n{n}` keys carrying the measured supersteps,
// cross-shard messages, and payload bytes of the P = 1..8 sweep — and
// extends the -flow document with the parallel-build block
// (build_seconds_workers1 / build_seconds_workers_max /
// speedup_build_parallel, gated by -parallel-floor on multicore CI);
// the other documents only bump the version. (v8 was the -serve chaos
// block.)

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"distflow"
	"distflow/internal/graph"
)

// benchSchema is the single definition of the bench JSON schema
// version.
const benchSchema = 9

// FlowBenchConfig parameterizes one -flow run. The JSON key order of
// this struct IS the schema-2 config layout; do not reorder fields.
type FlowBenchConfig struct {
	N       int     `json:"n"`
	Degree  float64 `json:"degree"`
	MaxCap  int64   `json:"max_cap"`
	Seed    int64   `json:"seed"`
	Queries int     `json:"queries"`
	Epsilon float64 `json:"epsilon"`
	Workers int     `json:"workers"`
}

// QueryStat records one sequential query (schema 2: the
// hardware-independent per-query metrics next to wall clock).
type QueryStat struct {
	S          int     `json:"s"`
	T          int     `json:"t"`
	Value      float64 `json:"value"`
	Iterations int     `json:"iterations"`
	Restarts   int     `json:"restarts"`
	AlphaUsed  float64 `json:"alpha_used"`
	Seconds    float64 `json:"seconds"`
}

// CompareStats summarizes one solver configuration over the workload
// (-compare records the plain-stepper baseline in this shape).
type CompareStats struct {
	Iterations int     `json:"iterations"`
	Restarts   int     `json:"restarts"`
	ValueSum   float64 `json:"value_sum"`
	Seconds    float64 `json:"seconds"`
}

// FlowBenchResult is the JSON document emitted by -flow -json.
type FlowBenchResult struct {
	Schema     int             `json:"schema"`
	Config     FlowBenchConfig `json:"config"`
	GoMaxProcs int             `json:"go_max_procs"`
	NumCPU     int             `json:"num_cpu"`
	M          int             `json:"m"`

	RouterBuildSeconds float64 `json:"router_build_seconds"`
	// SequentialSeconds is the wall time of issuing every query
	// one-at-a-time on a single goroutine (warm cache disabled).
	SequentialSeconds float64 `json:"sequential_seconds"`
	// BatchSeconds is the wall time of the same queries through
	// Router.MaxFlowBatch.
	BatchSeconds float64 `json:"batch_seconds,omitempty"`
	// SpeedupBatch = SequentialSeconds / BatchSeconds.
	SpeedupBatch float64 `json:"speedup_batch_vs_sequential,omitempty"`

	// ValueSum fingerprints the results: the sum of all query flow
	// values. Runs that must agree bit-for-bit can diff this field.
	ValueSum      float64 `json:"value_sum"`
	BatchValueSum float64 `json:"batch_value_sum,omitempty"`
	// Iterations totals the gradient iterations of the sequential pass —
	// the hardware-independent cost metric.
	Iterations int `json:"iterations"`
	// Queries holds the per-query breakdown of the sequential pass.
	Queries []QueryStat `json:"queries"`

	// BatchDeterministic reports the cross-check that two batch runs on
	// fresh routers at different worker counts produced bit-identical
	// value sums.
	BatchDeterministic bool `json:"batch_bit_identical_across_workers"`

	// Warm-repeat pass: the same queries re-issued against a router
	// whose warm cache has just answered them.
	RepeatSeconds    float64 `json:"repeat_seconds,omitempty"`
	RepeatIterations int     `json:"repeat_iterations"`
	RepeatValueSum   float64 `json:"repeat_value_sum,omitempty"`

	// Baseline is the plain-stepper run of -compare (acceleration
	// disabled; at ε ≥ 0.2 the continuation schedule is a single level,
	// so at the recorded ε = 0.5 it also runs without continuation),
	// with IterationRatio = Baseline.Iterations / Iterations.
	Baseline       *CompareStats `json:"baseline,omitempty"`
	IterationRatio float64       `json:"iteration_ratio_baseline_over_accel,omitempty"`

	// Parallel-build block (schema 9): the same router built once with
	// the solver pool pinned to a single worker and once at GOMAXPROCS
	// workers. SpeedupBuildParallel = BuildSecondsW1 / BuildSecondsWMax;
	// ~1.0 on a single-CPU recording machine, gated ≥ -parallel-floor on
	// multicore CI runners. Wall-clock, so benchdiff never gates it.
	BuildSecondsW1       float64 `json:"build_seconds_workers1,omitempty"`
	BuildSecondsWMax     float64 `json:"build_seconds_workers_max,omitempty"`
	SpeedupBuildParallel float64 `json:"speedup_build_parallel,omitempty"`
}

// FlowBenchFlags carries the mode flags of one -flow invocation.
type FlowBenchFlags struct {
	Compare       bool
	IterCeiling   int
	ParallelFloor float64
	CPUProfile    string
	MemProfile    string
}

func runFlowBench(cfg FlowBenchConfig, jsonPath string, flags FlowBenchFlags) error {
	if cfg.N < 2 {
		return fmt.Errorf("-flow needs -n >= 2 (no s-t pair exists on %d vertices)", cfg.N)
	}
	if cfg.Queries < 1 {
		return fmt.Errorf("-flow needs -queries >= 1")
	}
	if cfg.Workers != 0 {
		distflow.SetParallelism(cfg.Workers)
	}
	if flags.CPUProfile != "" {
		f, err := os.Create(flags.CPUProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	gg := graph.CapUniform(graph.GNP(cfg.N, cfg.Degree/float64(cfg.N), rng), cfg.MaxCap, rng)
	G := distflow.NewGraph(gg.N())
	for _, e := range gg.Edges() {
		G.AddEdge(e.U, e.V, e.Cap)
	}
	res := FlowBenchResult{
		Schema:     benchSchema,
		Config:     cfg,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		M:          G.M(),
	}
	fmt.Printf("flow bench: n=%d m=%d queries=%d eps=%v workers=%d GOMAXPROCS=%d\n",
		G.N(), G.M(), cfg.Queries, cfg.Epsilon, cfg.Workers, res.GoMaxProcs)

	// The measurement router disables the warm cache so the sequential
	// and batch passes stay strictly comparable (the cache would let the
	// batch warm-start from the sequential pass's results); the cache's
	// own effect is measured separately below.
	opts := distflow.Options{Epsilon: cfg.Epsilon, Seed: cfg.Seed, DisableWarmStart: true}
	start := time.Now()
	r, err := distflow.NewRouter(G, opts)
	if err != nil {
		return err
	}
	res.RouterBuildSeconds = time.Since(start).Seconds()
	fmt.Printf("  router build          %8.3fs (alpha=%.3f)\n", res.RouterBuildSeconds, r.Alpha())

	pairs := flowBenchPairs(G.N(), cfg.Queries, cfg.Seed)

	start = time.Now()
	for _, p := range pairs {
		qStart := time.Now()
		fr, err := r.MaxFlow(p.S, p.T)
		if err != nil {
			return fmt.Errorf("sequential query %d-%d: %w", p.S, p.T, err)
		}
		res.ValueSum += fr.Value
		res.Iterations += fr.Iterations
		res.Queries = append(res.Queries, QueryStat{
			S: p.S, T: p.T,
			Value:      fr.Value,
			Iterations: fr.Iterations,
			Restarts:   fr.Restarts,
			AlphaUsed:  fr.AlphaUsed,
			Seconds:    time.Since(qStart).Seconds(),
		})
	}
	res.SequentialSeconds = time.Since(start).Seconds()
	fmt.Printf("  sequential queries    %8.3fs (%.3fs/query, %d iterations, value sum %.6f)\n",
		res.SequentialSeconds, res.SequentialSeconds/float64(len(pairs)), res.Iterations, res.ValueSum)

	if err := runFlowBenchBatch(r, pairs, &res); err != nil {
		return err
	}
	if err := runFlowBenchBatchDeterminism(G, opts, pairs, &res); err != nil {
		return err
	}
	if err := runFlowBenchWarmRepeat(G, cfg, pairs, &res); err != nil {
		return err
	}
	if flags.Compare {
		if err := runFlowBenchBaseline(G, cfg, pairs, &res); err != nil {
			return err
		}
	}
	if err := runFlowBenchParallelBuild(G, opts, &res); err != nil {
		return err
	}

	if flags.MemProfile != "" {
		f, err := os.Create(flags.MemProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
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
	if err := iterBudget.check(float64(res.Iterations), float64(flags.IterCeiling)); err != nil {
		return err
	}
	return parallelBudget.check(res.SpeedupBuildParallel, flags.ParallelFloor)
}

// runFlowBenchParallelBuild rebuilds the router twice — once with the
// solver pool pinned to a single worker, once at GOMAXPROCS workers —
// and records the build-parallelism speedup. The single-worker build
// runs first so the warm-cache bias of back-to-back builds (page cache,
// branch predictors, already-grown pool buffers) lands on neither side
// systematically: both rebuilds follow the full measurement run, which
// has warmed everything a build touches.
func runFlowBenchParallelBuild(G *distflow.Graph, opts distflow.Options, res *FlowBenchResult) error {
	buildAt := func(workers int) (float64, error) {
		defer distflow.SetParallelism(distflow.SetParallelism(workers))
		start := time.Now()
		_, err := distflow.NewRouter(G, opts)
		return time.Since(start).Seconds(), err
	}
	var err error
	if res.BuildSecondsW1, err = buildAt(1); err != nil {
		return fmt.Errorf("parallel-build check (workers=1): %w", err)
	}
	if res.BuildSecondsWMax, err = buildAt(runtime.GOMAXPROCS(0)); err != nil {
		return fmt.Errorf("parallel-build check (workers=%d): %w", runtime.GOMAXPROCS(0), err)
	}
	if res.BuildSecondsWMax > 0 {
		res.SpeedupBuildParallel = res.BuildSecondsW1 / res.BuildSecondsWMax
	}
	fmt.Printf("  parallel build        workers=1 %.3fs vs workers=%d %.3fs (%.2fx)\n",
		res.BuildSecondsW1, runtime.GOMAXPROCS(0), res.BuildSecondsWMax, res.SpeedupBuildParallel)
	return nil
}

// runFlowBenchBatch issues the same queries through Router.MaxFlowBatch
// and cross-checks that the batch results match the sequential ones.
func runFlowBenchBatch(r *distflow.Router, pairs []distflow.STPair, res *FlowBenchResult) error {
	start := time.Now()
	batch, err := r.MaxFlowBatch(pairs)
	if err != nil {
		return fmt.Errorf("batch: %w", err)
	}
	res.BatchSeconds = time.Since(start).Seconds()
	for _, fr := range batch {
		res.BatchValueSum += fr.Value
	}
	if res.BatchSeconds > 0 {
		res.SpeedupBatch = res.SequentialSeconds / res.BatchSeconds
	}
	fmt.Printf("  batch queries         %8.3fs (%.2fx vs sequential, value sum %.6f)\n",
		res.BatchSeconds, res.SpeedupBatch, res.BatchValueSum)
	if res.BatchValueSum != res.ValueSum {
		return fmt.Errorf("batch value sum %v differs from sequential %v: batch results are not bit-identical",
			res.BatchValueSum, res.ValueSum)
	}
	return nil
}

// runFlowBenchBatchDeterminism runs the batch on two fresh routers at
// different worker counts and verifies the results are bit-identical.
func runFlowBenchBatchDeterminism(G *distflow.Graph, opts distflow.Options, pairs []distflow.STPair, res *FlowBenchResult) error {
	runAt := func(workers int) ([]*distflow.Result, error) {
		defer distflow.SetParallelism(distflow.SetParallelism(workers))
		r, err := distflow.NewRouter(G, opts)
		if err != nil {
			return nil, err
		}
		return r.MaxFlowBatch(pairs)
	}
	a, err := runAt(1)
	if err != nil {
		return fmt.Errorf("determinism check (workers=1): %w", err)
	}
	b, err := runAt(2)
	if err != nil {
		return fmt.Errorf("determinism check (workers=2): %w", err)
	}
	res.BatchDeterministic = true
	for i := range a {
		if a[i].Value != b[i].Value || a[i].Iterations != b[i].Iterations {
			res.BatchDeterministic = false
		}
		// Bit-identical means the full flow vectors, not just the
		// value/iteration fingerprints.
		for e := range a[i].Flow {
			if a[i].Flow[e] != b[i].Flow[e] {
				res.BatchDeterministic = false
				break
			}
		}
	}
	if !res.BatchDeterministic {
		return fmt.Errorf("batch results differ between worker counts 1 and 2")
	}
	fmt.Printf("  batch determinism     bit-identical at workers=1 and workers=2\n")
	return nil
}

// runFlowBenchWarmRepeat answers the workload on a cache-enabled router
// and then re-issues it, measuring how the warm cache collapses the
// repeat cost.
func runFlowBenchWarmRepeat(G *distflow.Graph, cfg FlowBenchConfig, pairs []distflow.STPair, res *FlowBenchResult) error {
	r, err := distflow.NewRouter(G, distflow.Options{Epsilon: cfg.Epsilon, Seed: cfg.Seed})
	if err != nil {
		return err
	}
	if _, err := r.MaxFlowBatch(pairs); err != nil {
		return fmt.Errorf("warm prime: %w", err)
	}
	start := time.Now()
	repeat, err := r.MaxFlowBatch(pairs)
	if err != nil {
		return fmt.Errorf("warm repeat: %w", err)
	}
	res.RepeatSeconds = time.Since(start).Seconds()
	for _, fr := range repeat {
		res.RepeatValueSum += fr.Value
		res.RepeatIterations += fr.Iterations
	}
	fmt.Printf("  warm repeat           %8.3fs (%d iterations, value sum %.6f)\n",
		res.RepeatSeconds, res.RepeatIterations, res.RepeatValueSum)
	return nil
}

// runFlowBenchBaseline re-solves the workload with the accelerated
// stepper disabled (the plain backtracking stepper) on a fresh router,
// recording the -compare baseline.
func runFlowBenchBaseline(G *distflow.Graph, cfg FlowBenchConfig, pairs []distflow.STPair, res *FlowBenchResult) error {
	r, err := distflow.NewRouter(G, distflow.Options{
		Epsilon:             cfg.Epsilon,
		Seed:                cfg.Seed,
		DisableWarmStart:    true,
		DisableAcceleration: true,
	})
	if err != nil {
		return err
	}
	base := &CompareStats{}
	start := time.Now()
	for _, p := range pairs {
		fr, err := r.MaxFlow(p.S, p.T)
		if err != nil {
			return fmt.Errorf("baseline query %d-%d: %w", p.S, p.T, err)
		}
		base.ValueSum += fr.Value
		base.Iterations += fr.Iterations
		base.Restarts += fr.Restarts
	}
	base.Seconds = time.Since(start).Seconds()
	res.Baseline = base
	if res.Iterations > 0 {
		res.IterationRatio = float64(base.Iterations) / float64(res.Iterations)
	}
	fmt.Printf("  baseline (no accel)   %8.3fs (%d iterations, value sum %.6f) — accel cuts iterations %.2fx\n",
		base.Seconds, base.Iterations, base.ValueSum, res.IterationRatio)
	return nil
}

// flowBenchPairs derives the query workload deterministically from the
// seed: distinct random s-t pairs.
func flowBenchPairs(n, queries int, seed int64) []distflow.STPair {
	rng := rand.New(rand.NewSource(seed + 1))
	pairs := make([]distflow.STPair, 0, queries)
	for len(pairs) < queries {
		s, t := rng.Intn(n), rng.Intn(n)
		if s != t {
			pairs = append(pairs, distflow.STPair{S: s, T: t})
		}
	}
	return pairs
}
