package main

// The -scale mode climbs the instance ladder n = 10⁴, 10⁵, 10⁶ (capped
// by -scale-max-n) and measures every pipeline phase — streamed
// generation to disk, streamed load back, router build with its
// per-phase breakdown — in both wall time and memory. Memory is
// accounted two ways per phase: the retained HeapAlloc delta (GC before
// and after the phase, so the delta is what the phase keeps alive) and
// the transient peak (a 25 ms sampler plus the end-of-phase reading, so
// build-time scratch shows up even when it is freed before the phase
// ends). The ladder is what exposed three build costs: the SplitGraph
// race heap (since replaced by a bucket queue, lsst.RaceOrderVersion
// 2), duplicated §8.1 multiplicity edges, and eager LCA tables.
//
// The JSON document (schema 7) is a flat map so cmd/benchdiff can gate
// individual rungs: per-rung keys carry an `_n{n}` suffix
// (alpha_n10000, build_seconds_n100000, ...). Rungs beyond -scale-max-n
// are absent, and benchdiff skips gates whose keys are absent — the
// committed BENCH_scale.json is recorded at -scale-max-n 100000 so CI
// compares like with like, while the n=10⁶ evidence run lives in
// BENCH_scale_1e6.json, ungated.
//
// Wall-clock and memory keys are never gated (hardware-dependent); the
// gated keys are the hardware-independent fingerprints: m, alpha,
// trees per rung, and value_sum/iterations at the smallest rung (the
// only rung cheap enough to query).
//
// -scale-mem-ceiling both gates the measured peak and pins the
// runtime's soft memory limit to the same value (see runScaleBench):
// the ladder showed the peak is set by the GC pacer doubling a lean
// live set, not by the live set itself, so the budget has to be handed
// to the pacer to be meaningful.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"distflow"
	"distflow/internal/graph"
)

// scaleRungs is the full ladder; -scale-max-n trims it.
var scaleRungs = []int{10_000, 100_000, 1_000_000}

// phaseCost is one phase's wall time and memory accounting.
type phaseCost struct {
	seconds float64
	// deltaMB is the retained HeapAlloc growth across the phase
	// (runtime.GC() runs before and after, so transient scratch is
	// excluded — this is what the phase keeps alive).
	deltaMB float64
	// peakMB is the highest HeapAlloc observed during the phase (25 ms
	// sampler + end-of-phase reading — transient scratch included).
	peakMB float64
}

// measurePhase runs fn under the time/memory instrumentation.
func measurePhase(fn func() error) (phaseCost, error) {
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	peak := before.HeapAlloc
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(25 * time.Millisecond)
		defer tick.Stop()
		var ms runtime.MemStats
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > peak {
					peak = ms.HeapAlloc
				}
			}
		}
	}()
	start := time.Now()
	err := fn()
	sec := time.Since(start).Seconds()
	close(stop)
	<-done
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if after.HeapAlloc > peak {
		peak = after.HeapAlloc
	}
	runtime.GC()
	var retained runtime.MemStats
	runtime.ReadMemStats(&retained)
	return phaseCost{
		seconds: sec,
		deltaMB: (float64(retained.HeapAlloc) - float64(before.HeapAlloc)) / (1 << 20),
		peakMB:  float64(peak) / (1 << 20),
	}, err
}

func runScaleBench(cfg FlowBenchConfig, jsonPath string, maxN int, memCeilingMB float64) error {
	if cfg.Workers != 0 {
		distflow.SetParallelism(cfg.Workers)
	}
	if memCeilingMB > 0 {
		// The ceiling is enforced by the GC pacer, not just checked after
		// the fact. Under the default GOGC=100 the heap runs to 2× the
		// live set before a collection triggers, so a build whose pooled
		// scratch keeps ~4.7 GB live at n=10⁶ peaks near 9.4 GB while
		// retaining half that. Pinning the soft memory limit (GOMEMLIMIT)
		// to the ceiling makes the pacer collect at the budget instead of
		// at 2×live; the cost is extra GC cycles only in the window where
		// 2×live would exceed the ceiling.
		prev := debug.SetMemoryLimit(int64(memCeilingMB) * (1 << 20))
		defer debug.SetMemoryLimit(prev)
	}
	rungs := make([]int, 0, len(scaleRungs))
	for _, n := range scaleRungs {
		if n <= maxN {
			rungs = append(rungs, n)
		}
	}
	if len(rungs) == 0 {
		return fmt.Errorf("-scale-max-n %d is below the smallest rung (%d)", maxN, scaleRungs[0])
	}
	// The config block names the largest rung actually climbed, so
	// benchdiff's same-workload check distinguishes a max-n 10⁵ document
	// from a max-n 10⁶ one.
	cfg.N = rungs[len(rungs)-1]
	doc := map[string]any{
		"schema":       benchSchema,
		"mode":         "scale",
		"config":       cfg,
		"go_max_procs": runtime.GOMAXPROCS(0),
		"num_cpu":      runtime.NumCPU(),
	}
	fmt.Printf("scale bench: rungs=%v deg=%v eps=%v workers=%d GOMAXPROCS=%d\n",
		rungs, cfg.Degree, cfg.Epsilon, cfg.Workers, runtime.GOMAXPROCS(0))

	dir, err := os.MkdirTemp("", "distflow-scale")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	maxPeakMB := 0.0
	note := func(key string, n int, v float64) {
		doc[fmt.Sprintf("%s_n%d", key, n)] = v
	}
	for i, n := range rungs {
		path := filepath.Join(dir, fmt.Sprintf("g%d.txt", n))
		p := cfg.Degree / float64(n)

		// Phase 1: streamed generation straight to disk — the edge list
		// never materializes (graph.StreamGNP).
		gen, err := measurePhase(func() error {
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			if err := graph.StreamGNP(f, n, p, cfg.MaxCap, cfg.Seed); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		})
		if err != nil {
			return fmt.Errorf("n=%d gen: %w", n, err)
		}

		// Phase 2: streamed load back plus the conversion into the
		// solver graph (the loaded graph, not the loader, should be the
		// retained cost here).
		var G *distflow.Graph
		var m int
		load, err := measurePhase(func() error {
			f, err := os.Open(path)
			if err != nil {
				return err
			}
			defer f.Close()
			gg, err := graph.Read(f)
			if err != nil {
				return err
			}
			m = gg.M()
			G = distflow.NewGraph(gg.N())
			for _, e := range gg.Edges() {
				G.AddEdge(e.U, e.V, e.Cap)
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("n=%d load: %w", n, err)
		}

		// Phase 3: the router build, with the per-phase breakdown
		// (sample/race/sparsify/cutcap/alpha) attributing the cost.
		opts := distflow.Options{Epsilon: cfg.Epsilon, Seed: cfg.Seed, DisableWarmStart: true}
		var r *distflow.Router
		build, err := measurePhase(func() error {
			var err error
			r, err = distflow.NewRouter(G, opts)
			return err
		})
		if err != nil {
			return fmt.Errorf("n=%d build: %w", n, err)
		}
		ph := r.BuildBreakdown()

		note("m", n, float64(m))
		note("gen_seconds", n, gen.seconds)
		note("gen_peak_mb", n, gen.peakMB)
		note("load_seconds", n, load.seconds)
		note("load_heap_mb", n, load.deltaMB)
		note("load_peak_mb", n, load.peakMB)
		note("build_seconds", n, build.seconds)
		note("build_heap_mb", n, build.deltaMB)
		note("build_peak_mb", n, build.peakMB)
		note("sample_seconds", n, ph.SampleSeconds)
		note("sparsify_seconds", n, ph.SparsifySeconds)
		note("race_seconds", n, ph.RaceSeconds)
		note("cutcap_seconds", n, ph.CutCapSeconds)
		note("alpha_seconds", n, ph.AlphaSeconds)
		note("alpha", n, r.Alpha())
		note("trees", n, float64(r.Trees()))
		for _, c := range []phaseCost{gen, load, build} {
			if c.peakMB > maxPeakMB {
				maxPeakMB = c.peakMB
			}
		}
		fmt.Printf("  n=%-8d m=%-9d gen %7.2fs | load %7.2fs (%7.1f MB) | build %8.2fs (peak %8.1f MB, alpha=%.3f, trees=%d)\n",
			n, m, gen.seconds, load.seconds, load.deltaMB, build.seconds, build.peakMB, r.Alpha(), r.Trees())
		fmt.Printf("    build phases: sample %.2fs (race %.2fs, sparsify %.2fs) | cutcap %.2fs | alpha %.2fs\n",
			ph.SampleSeconds, ph.RaceSeconds, ph.SparsifySeconds, ph.CutCapSeconds, ph.AlphaSeconds)

		// Serving fingerprint at the smallest rung only — queries at 10⁵
		// and up would dwarf the build the ladder is here to measure.
		if i == 0 {
			valueSum := 0.0
			iters := 0
			for _, pr := range flowBenchPairs(G.N(), cfg.Queries, cfg.Seed) {
				fr, err := r.MaxFlow(pr.S, pr.T)
				if err != nil {
					return fmt.Errorf("n=%d fingerprint query %d-%d: %w", n, pr.S, pr.T, err)
				}
				valueSum += fr.Value
				iters += fr.Iterations
			}
			note("value_sum", n, valueSum)
			note("iterations", n, float64(iters))
			fmt.Printf("    fingerprint: value sum %.6f (%d iterations)\n", valueSum, iters)
		}

		// Drop the rung's graph and router before the next rung's GC
		// baseline.
		r, G = nil, nil
		_ = r
		_ = G
		if err := os.Remove(path); err != nil {
			return err
		}
	}
	doc["peak_heap_mb"] = maxPeakMB

	if jsonPath != "" {
		out, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		out = append(out, '\n')
		if err := os.WriteFile(jsonPath, out, 0o644); err != nil {
			return err
		}
		fmt.Printf("  wrote %s\n", jsonPath)
	}
	if err := scaleMemBudget.check(maxPeakMB, memCeilingMB); err != nil {
		return err
	}
	fmt.Printf("  peak heap across ladder: %.1f MB\n", maxPeakMB)
	return nil
}
