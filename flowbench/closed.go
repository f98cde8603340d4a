package main

import (
	"fmt"
	"sort"
	"time"

	"distflow"
)

// closedLoopCap bounds how long a closed loop keeps sending its pool,
// as a multiple of the measured seconds, so that a slow program or a
// slow spell of the machine still lets every run end in time. The pool
// is sized to take about 80% of the measured seconds.
const closedLoopCap = 1.3

// warmups is how many untimed queries, on pairs outside the pool, a
// closed loop sends before timing, so that the first timed query does
// not pay for the process's first page faults and heap growth.
const warmups = 2

// runClosed runs a closed-loop workload: one client sends
// Router.MaxFlowCtx calls for the whole pair pool in the seed's order,
// the next one after the previous answer, pool pair k to graph k mod
// Graphs. Every answer is checked outside the timed window.
func runClosed(w Workload, seed int64, seconds float64, rep *Report) error {
	insts, times, err := setupInstances(w, nil)
	if err != nil {
		return err
	}
	defer closeAll(insts)
	reportSetup(rep, times, len(insts))
	rep.show("graph.n", float64(insts[0].G.N()), "count", "first graph")
	rep.show("graph.m", float64(insts[0].G.M()), "count", "first graph")

	all := pairPool(insts[0].G.N(), w.poolSize(seconds)+warmups)
	pool := all[:len(all)-warmups]
	for i, p := range all[len(pool):] {
		ctx, cancel := capCtx()
		_, err := insts[i%len(insts)].r.MaxFlowCtx(ctx, p.S, p.T)
		cancel()
		rep.Tally.Op(err)
	}
	var lats, rounds []float64
	values := make([]float64, len(pool))
	var fp []int // prefix pool indices answered
	worst := 0.0
	busy := 0.0 // summed query latency: the query phase's time
	limit := time.Duration(closedLoopCap * seconds * float64(time.Second))
	start := time.Now()
	for _, k := range queryOrder(len(pool), seed) {
		if time.Since(start) > limit {
			rep.note("stopped after %v with %d of %d pool pairs answered", limit, len(lats), len(pool))
			break
		}
		in := insts[k%len(insts)]
		p := pool[k]
		ctx, cancel := capCtx()
		t0 := time.Now()
		res, err := in.r.MaxFlowCtx(ctx, p.S, p.T)
		d := time.Since(t0).Seconds()
		cancel()
		busy += d
		rep.Tally.Op(err)
		if err != nil {
			continue
		}
		lats = append(lats, d)
		worst = max(worst, checkAnswer(rep, in.G, p, res))
		rounds = append(rounds, float64(res.Rounds-in.r.ConstructionRounds()))
		if k < w.Prefix {
			fp = append(fp, k)
			values[k] = res.Value
		}
	}
	sort.Ints(fp)
	prefix := make([]float64, len(fp))
	for i, k := range fp {
		prefix[i] = values[k]
	}
	l := summarize(lats, w.TailPct)
	rep.set("latency_p50_s", l.P50, fmt.Sprintf("query_p50_s over %d queries", l.N))
	rep.set("latency_tail_s", l.TailMean, tailNote("query_tail_s", l, w.TailPct))
	rep.set("throughput_qps", float64(len(lats))/busy, fmt.Sprintf("queries_per_s: %d answers in %.4g s of query time", len(lats), busy))
	rep.set("query_rounds", medianOf(rounds), fmt.Sprintf("median over the pool's %d answers", len(rounds)))
	rep.set("approx_ratio", worst, fmt.Sprintf("worst exact/value over the same answers (limit 1+eps = %g)", 1+Epsilon))
	rep.note("value fingerprint of the first %d pool pairs: %s", w.Prefix, fingerprint(fp, prefix))
	return nil
}

// checkAnswer runs the correctness gate on one answer, counting the
// check as an attempted operation, and returns the approximation ratio.
// The answer must be within 1+ε of the exact maximum. No call the
// benchmark makes carries a deadline, so a degraded answer is itself a
// failed check.
func checkAnswer(rep *Report, G *distflow.Graph, p Pair, res *distflow.Result) float64 {
	if res.Degraded {
		rep.Tally.Check(fmt.Errorf("pair %d-%d: degraded answer to a call without a deadline", p.S, p.T))
		return 0
	}
	exact, _ := distflow.ExactMaxFlow(G, p.S, p.T)
	ratio, err := checkFlow(G, p.S, p.T, res.Value, res.Flow, exact, 1+Epsilon)
	rep.Tally.Check(err)
	return ratio
}

func tailNote(label string, l Latency, pct float64) string {
	if l.MedianOnly {
		return fmt.Sprintf("%s: median-only fallback, mean of the upper %d of %d samples (< %d)", label, l.TailBeyond, l.N, 2*tailMin)
	}
	note := fmt.Sprintf("%s: mean of the %d of %d samples beyond p%.4g (%.4g s)", label, l.TailBeyond, l.N, l.TailPct, l.Tail)
	if l.TailPct < pct {
		note += fmt.Sprintf(" (too few samples for the workload's p%g)", pct)
	}
	return note
}
