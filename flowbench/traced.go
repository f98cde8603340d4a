package main

import (
	"fmt"
	"time"

	"distflow"
)

// runClosedTraced is the traced run of a closed-loop workload: traced
// set-up, the shadow layer stack of the first graph, the first graph's
// prefix queries replayed untraced and traced, and the kernel timings.
func runClosedTraced(w Workload, seed int64, seconds float64, rep *Report) error {
	tr := NewTracer()
	defer func() { rep.Spans = tr.Spans() }()
	insts, times, err := setupInstances(w, tr)
	if err != nil {
		return err
	}
	defer closeAll(insts)
	reportSetup(rep, times, len(insts))
	in := insts[0]
	ru, err := distflow.NewRouter(in.G, w.options())
	if err != nil {
		return err
	}
	defer ru.Close()
	sh, err := buildShadow(w, tr, rep)
	if err != nil {
		return err
	}
	defer sh.Close()
	// The first pairs the untraced run sends to the first graph.
	pool := pairPool(in.G.N(), w.poolSize(seconds))
	var pairs []Pair
	for _, k := range queryOrder(len(pool), seed) {
		if k%len(insts) == 0 && len(pairs) < w.TracePrefix {
			pairs = append(pairs, pool[k])
		}
	}
	fr := traceQueries(ru, in.r, in.G, sh, pairs, tr, rep)
	if fr == nil {
		return nil
	}
	last := pairs[len(pairs)-1]
	return kernels(sh, fr, last.S, last.T, tr, rep)
}

// runServeTraced is the traced run of serve-mixed: traced set-up and
// layer stack, one probe query and the kernels, then the serving load
// twice over half the window each, untraced on a fresh router and
// traced on the set-up one, and the quiesced check.
func runServeTraced(w Workload, seed int64, seconds float64, rep *Report) error {
	tr := NewTracer()
	defer func() { rep.Spans = tr.Spans() }()
	insts, times, err := setupInstances(w, tr)
	if err != nil {
		return err
	}
	defer closeAll(insts)
	reportSetup(rep, times, len(insts))
	sh, err := buildShadow(w, tr, rep)
	if err != nil {
		return err
	}
	defer sh.Close()
	// Fresh routers on graph copies of their own (updates mutate the
	// graph a router serves): two for the probe, one for the untraced
	// load.
	in := insts[0]
	fresh := make([]instance, 0, 3)
	defer func() { closeAll(fresh) }()
	for range 3 {
		G := publicGraph(in.g)
		r, err := distflow.NewRouter(G, w.options())
		if err != nil {
			return err
		}
		fresh = append(fresh, instance{g: in.g, G: G, r: r})
	}

	window := time.Duration(seconds / 2 * float64(time.Second))
	plan := makeServePlan(in.G.N(), in.G.M(), seed, window)
	// The probe pairs are ones no request uses.
	probe := plan.Quiesced[:w.TracePrefix]
	if fr := traceQueries(fresh[0].r, fresh[1].r, fresh[0].G, sh, probe, tr, rep); fr != nil {
		last := probe[len(probe)-1]
		if err := kernels(sh, fr, last.S, last.T, tr, rep); err != nil {
			return err
		}
	}

	untraced := serveLoad(newServer(fresh[2].r), plan, window, nil)
	tallyServe(rep, untraced)
	traced := serveLoad(newServer(in.r), plan, window, tr)
	tallyServe(rep, traced)
	serveLayers(rep, traced, tr.Spans())
	um, tm := medianOf(answeredLatencies(untraced.Requests)), medianOf(answeredLatencies(traced.Requests))
	rep.set("trace.overhead_s", tm-um, fmt.Sprintf("traced minus untraced request latency median (%.4g s untraced)", um))
	quiesced(rep, in, plan)
	return nil
}

// serveLayers records the serving and update layer metrics of a traced
// load.
func serveLayers(rep *Report, run ServeRun, spans []Span) {
	answered, warm := 0, 0
	for _, s := range run.Requests {
		if s.err == nil {
			answered++
			if s.res.WarmStarted {
				warm++
			}
		}
	}
	if answered > 0 {
		rep.set("distflow.warm_hit_frac", float64(warm)/float64(answered), "answers started from the warm cache")
	}
	rep.set("distflow.epochs_pinned", float64(run.Pinned), "most superseded epochs still pinned when an update began")
	var dirty, swept, resampled, rebuilds, nu float64
	for _, u := range run.Updates {
		if u.err != nil {
			continue
		}
		nu++
		dirty += float64(u.res.DirtyTrees)
		swept += float64(u.res.SweptTrees)
		resampled += float64(u.res.ResampledTrees)
		if u.res.Rebuilt {
			rebuilds++
		}
	}
	if nu > 0 {
		rep.set("distflow.update_dirty_trees", dirty/nu, "per update batch")
		rep.set("distflow.update_swept_trees", swept/nu, "per update batch")
		rep.set("distflow.update_resampled_trees", resampled/nu, "per update batch")
		rep.set("distflow.update_rebuilds", rebuilds, fmt.Sprintf("full rebuilds in %d batches", int(nu)))
	}
	rep.set("distflow.cap_update_s", medianOf(durations(spans, "distflow.Server.UpdateCapacities")), "median span")
	rep.set("distflow.topo_update_s", medianOf(durations(spans, "distflow.Server.UpdateTopology")), "median span")
	st := run.Stats
	if st.Queries > 0 {
		rep.set("serve.coalesced_frac", float64(st.Coalesced)/float64(st.Queries), fmt.Sprintf("of %d admitted", st.Queries))
	}
	if st.Batches > 0 {
		rep.set("serve.batch_pairs", float64(st.Queries-st.Coalesced)/float64(st.Batches), fmt.Sprintf("distinct pairs per batch, %d batches", st.Batches))
	}
	rep.set("serve.rejected_overload", float64(st.RejectedOverload), "")
	rep.set("serve.rejected_draining", float64(st.RejectedDraining), "")
	rep.set("serve.rejected_deadline", float64(st.RejectedDeadline), "")
	rep.set("serve.rejected_validation", float64(st.RejectedValidation), "")
	rep.set("serve.rejected_panic", float64(st.RejectedPanic), "")
	rep.set("serve.generator_lag_s", run.MaxLag.Seconds(), "latest send behind schedule")
}
