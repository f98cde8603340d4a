package main

import (
	"fmt"
	"runtime"
	"time"

	"distflow"
	"distflow/internal/graph"
)

// minBuilds is the fewest router builds a run times; setup_s is their
// median, so a single slow build does not move it.
const minBuilds = 16

// instance is one graph of a run with the router serving it.
type instance struct {
	g *graph.Graph    // the generated graph (internal copy)
	G *distflow.Graph // the graph the router was built on
	r *distflow.Router
}

// setupInstances generates the run's graphs and builds a router for
// each, timing every build. Graphs are built more than once when there
// are fewer than minBuilds of them; the last router of each is kept,
// the others closed (they may hold shard goroutines). A forced GC
// before each build keeps earlier garbage out of the timed window.
func setupInstances(w Workload, tr *Tracer) ([]instance, []float64, error) {
	span := tr.Begin("setup", 0)
	defer tr.End(span)
	reps := (minBuilds + w.Graphs - 1) / w.Graphs
	insts := make([]instance, w.Graphs)
	var times []float64
	for k := range insts {
		g, err := makeGraph(w.Family, k)
		if err != nil {
			return nil, nil, err
		}
		G := publicGraph(g)
		var r *distflow.Router
		for i := 0; i < reps; i++ {
			if r != nil {
				r.Close()
			}
			runtime.GC()
			id := tr.Begin("distflow.NewRouter", span)
			t0 := time.Now()
			r, err = distflow.NewRouter(G, w.options())
			d := time.Since(t0).Seconds()
			tr.End(id)
			if err != nil {
				closeAll(insts[:k])
				return nil, nil, fmt.Errorf("setup: %w", err)
			}
			times = append(times, d)
		}
		insts[k] = instance{g: g, G: G, r: r}
	}
	return insts, times, nil
}

func closeAll(insts []instance) {
	for _, in := range insts {
		in.r.Close()
	}
}

// liveHeapMB forces a collection and returns the live heap in MB.
func liveHeapMB() float64 {
	// Two cycles: the first moves sync.Pool contents to the victim
	// cache, the second frees them.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// reportSetup records setup_s and heap_mb, which every workload shares.
func reportSetup(rep *Report, times []float64, graphs int) {
	rep.set("setup_s", medianOf(times), fmt.Sprintf("NewRouter, median of %d builds on %d graphs", len(times), graphs))
	rep.set("heap_mb", liveHeapMB(), fmt.Sprintf("live heap after set-up (routers: %d) and a forced GC", graphs))
}
