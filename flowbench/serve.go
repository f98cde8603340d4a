package main

import (
	"fmt"
	"sync"
	"time"

	"distflow"
)

// served is the outcome of one serving request.
type served struct {
	due     time.Duration
	latency float64 // from the request's due time
	res     *distflow.Result
	err     error
}

// updated is the outcome of one update batch.
type updated struct {
	topo    bool
	latency float64
	res     *distflow.UpdateResult
	err     error
}

// ServeRun is everything one serving load produced.
type ServeRun struct {
	Window   time.Duration
	Requests []served
	Updates  []updated
	Elapsed  time.Duration // until the last request and update completed
	MaxLag   time.Duration // how late the generator sent, at worst
	Pinned   int64         // most superseded epochs still pinned at an update
	Stats    distflow.ServeStats
}

// serveLoad drives srv with plan: one generator sends each request at
// its due time without waiting for answers (open loop), and one
// updater applies the update batches on their schedule. It returns
// after every request and update has completed.
func serveLoad(srv *distflow.Server, plan ServePlan, window time.Duration, tr *Tracer) ServeRun {
	run := ServeRun{Window: window, Requests: make([]served, len(plan.Requests)), Updates: make([]updated, len(plan.Updates))}
	r := srv.Router()
	var wg sync.WaitGroup
	start := time.Now()

	wg.Add(1)
	go func() {
		defer wg.Done()
		var prevEdges []int
		prevVertex := -1
		for j, op := range plan.Updates {
			time.Sleep(time.Until(start.Add(op.Due)))
			run.Pinned = max(run.Pinned, r.EpochsRetired()-r.EpochsDrained())
			span := tr.Begin("update", 0)
			u := updated{topo: op.Topo}
			t0 := time.Now()
			if op.Topo {
				edits := make([]distflow.TopoEdit, 0, len(prevEdges)+len(op.Adds)+2)
				for _, e := range prevEdges {
					edits = append(edits, distflow.DeleteEdgeEdit(e))
				}
				if prevVertex >= 0 {
					edits = append(edits, distflow.RemoveVertexEdit(prevVertex))
				}
				for _, a := range op.Adds {
					edits = append(edits, distflow.AddEdgeEdit(int(a[0]), int(a[1]), a[2]))
				}
				edits = append(edits, distflow.AddVertexEdit(op.Links...))
				tr.Do("distflow.Server.UpdateTopology", span, func() { u.res, u.err = srv.UpdateTopology(edits) })
				if u.err == nil {
					// Delete next time only the plain added edges; the
					// vertex's links die with the vertex.
					prevEdges = u.res.AddedEdges[:len(op.Adds)]
					prevVertex = u.res.AddedVertices[0]
				}
			} else {
				tr.Do("distflow.Server.UpdateCapacities", span, func() { u.res, u.err = srv.UpdateCapacities(op.Caps) })
			}
			u.latency = time.Since(t0).Seconds()
			tr.End(span)
			run.Updates[j] = u
		}
	}()

	for i, rq := range plan.Requests {
		due := start.Add(rq.Due)
		time.Sleep(time.Until(due))
		run.MaxLag = max(run.MaxLag, time.Since(due))
		wg.Add(1)
		go func(i int, p Pair) {
			defer wg.Done()
			span := tr.Begin("request", 0)
			s := served{due: due.Sub(start)}
			ctx, cancel := capCtx()
			tr.Do("distflow.Server.MaxFlowCtx", span, func() { s.res, s.err = srv.MaxFlowCtx(ctx, p.S, p.T) })
			cancel()
			s.latency = time.Since(due).Seconds()
			tr.End(span)
			run.Requests[i] = s
		}(i, rq.Pair)
	}
	wg.Wait()
	run.Elapsed = time.Since(start)
	run.Stats = srv.Stats()
	return run
}

// runServe runs serve-mixed: set-up, the serving load, then the
// quiesced correctness sample on the final graph.
func runServe(w Workload, seed int64, seconds float64, rep *Report) error {
	insts, times, err := setupInstances(w, nil)
	if err != nil {
		return err
	}
	defer closeAll(insts)
	reportSetup(rep, times, len(insts))
	in := insts[0]
	window := time.Duration(seconds * float64(time.Second))
	plan := makeServePlan(in.G.N(), in.G.M(), seed, window)
	run := serveLoad(newServer(in.r), plan, window, nil)
	tallyServe(rep, run)
	reportServe(rep, w, run)
	quiesced(rep, in, plan)
	return nil
}

// newServer serves r with the default ServeOptions: no default
// deadline, so solves run the default escalation policy.
func newServer(r *distflow.Router) *distflow.Server {
	return distflow.NewServer(r, distflow.ServeOptions{})
}

// tallyServe counts every request and update of run as an attempted
// operation; errors, rejections and degraded answers are failures.
func tallyServe(rep *Report, run ServeRun) {
	for _, s := range run.Requests {
		err := s.err
		if err == nil && s.res.Degraded {
			err = fmt.Errorf("degraded answer to a request without a deadline")
		}
		rep.Tally.Op(err)
	}
	for _, u := range run.Updates {
		rep.Tally.Op(u.err)
	}
}

// reportServe records the serving metrics of run.
func reportServe(rep *Report, w Workload, run ServeRun) {
	lats := answeredLatencies(run.Requests)
	good, warm := 0, 0
	for _, s := range run.Requests {
		if s.err != nil {
			continue
		}
		if s.res.WarmStarted {
			warm++
		}
		if !s.res.Degraded && s.latency <= serveLatencyLimit.Seconds() {
			good++
		}
	}
	var capLat, topoLat []float64
	for _, u := range run.Updates {
		if u.err != nil {
			continue
		}
		if u.topo {
			topoLat = append(topoLat, u.latency)
		} else {
			capLat = append(capLat, u.latency)
		}
	}
	l := summarize(lats, w.TailPct)
	rep.set("latency_p50_s", l.P50, fmt.Sprintf("serve_p50_s over %d answers, from due time", l.N))
	rep.set("latency_tail_s", l.TailMean, tailNote("serve_tail_s", l, w.TailPct))
	rep.set("throughput_qps", float64(good)/run.Elapsed.Seconds(),
		fmt.Sprintf("serve_goodput_qps: %d good answers (limit %v) in %.3gs, offered %g/s for %v", good, serveLatencyLimit, run.Elapsed.Seconds(), serveRate, run.Window))
	rep.show("cap_update_p50_s", medianOf(capLat), "s", fmt.Sprintf("over %d capacity batches", len(capLat)))
	rep.show("topo_update_p50_s", medianOf(topoLat), "s", fmt.Sprintf("over %d topology batches", len(topoLat)))
	rep.show("serve.generator_lag_s", run.MaxLag.Seconds(), "s", "latest send behind schedule")
	rep.show("serve.drain_s", (run.Elapsed - run.Window).Seconds(), "s", "from the end of the window to the last completion")
	if half := len(run.Requests) / 2; half > 0 {
		// A backlog that grows shows as later requests waiting longer.
		early, late := answeredLatencies(run.Requests[:half]), answeredLatencies(run.Requests[half:])
		rep.show("serve.backlog_ratio", medianOf(late)/medianOf(early), "ratio", "median latency of the second half of the requests / the first half")
	}
	// The mix's measured effect: how often the warm cache and
	// coalescing did work.
	if len(lats) > 0 {
		rep.show("distflow.warm_hit_frac", float64(warm)/float64(len(lats)), "ratio", "answers that started from the warm cache")
	}
	if st := run.Stats; st.Queries > 0 {
		rep.show("serve.coalesced_frac", float64(st.Coalesced)/float64(st.Queries), "ratio", fmt.Sprintf("of %d admitted", st.Queries))
	}
}

func answeredLatencies(reqs []served) []float64 {
	var lats []float64
	for _, s := range reqs {
		if s.err == nil {
			lats = append(lats, s.latency)
		}
	}
	return lats
}

// quiesced checks the plan's fresh pairs on the router's final graph
// once serving has stopped, and reports query_rounds and approx_ratio
// from them.
func quiesced(rep *Report, in instance, plan ServePlan) {
	var values, rounds []float64
	var index []int
	worst := 0.0
	for i, p := range plan.Quiesced {
		ctx, cancel := capCtx()
		res, err := in.r.MaxFlowCtx(ctx, p.S, p.T)
		cancel()
		rep.Tally.Op(err)
		if err != nil {
			continue
		}
		worst = max(worst, checkAnswer(rep, in.G, p, res))
		index = append(index, i)
		values = append(values, res.Value)
		rounds = append(rounds, float64(res.Rounds-in.r.ConstructionRounds()))
	}
	G := in.G
	rep.note("final graph: n=%d (%d active), m=%d (%d live), epoch %d", G.N(), G.ActiveN(), G.M(), G.LiveM(), in.r.EpochSeq())
	if len(values) == 0 {
		rep.Tally.Check(fmt.Errorf("no quiesced answer"))
	}
	rep.set("query_rounds", medianOf(rounds), fmt.Sprintf("median over %d quiesced queries on the final graph", len(rounds)))
	rep.set("approx_ratio", worst, fmt.Sprintf("worst exact/value over %d quiesced queries (limit 1+eps = %g)", len(rounds), 1+Epsilon))
	rep.note("value fingerprint of the quiesced sample: %s", fingerprint(index, values))
}
