package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"distflow"
	"distflow/internal/capprox"
	"distflow/internal/graph"
	"distflow/internal/numutil"
	"distflow/internal/shard"
	"distflow/internal/sherman"
)

// The traced run. It records spans from the benchmark's own code
// around each call into a layer, and additionally calls the layers the
// Router composes — the approximator build, the Sherman solver, the
// per-iteration kernels, the shard engine — directly on the same
// inputs, so each layer's time can be read off on its own. End-to-end
// numbers never come from a traced run.

// shadow is the stack the Router builds internally, rebuilt from the
// exported layer functions with the Router's default configuration:
// the same seed and approximator settings, so its answers match the
// Router's bit for bit.
type shadow struct {
	g      *graph.Graph
	apx    *capprox.Approximator
	solver *sherman.Solver
	eng    *shard.Engine // the workload's engine when it shards
	cfg    sherman.Config
}

func (sh *shadow) Close() {
	if sh.eng != nil {
		sh.eng.Close()
	}
}

// buildShadow builds the shadow stack for w under a traced
// capprox.BuildCtx span and reports the build-layer metrics.
func buildShadow(w Workload, tr *Tracer, rep *Report) (*shadow, error) {
	g, err := makeGraph(w.Family, 0)
	if err != nil {
		return nil, err
	}
	root := tr.Begin("setup.layers", 0)
	defer tr.End(root)
	var apx *capprox.Approximator
	id := tr.Begin("capprox.BuildCtx", root)
	apx, err = capprox.BuildCtx(context.Background(), g, capprox.Config{ExactCuts: true}, rand.New(rand.NewSource(routerSeed)))
	tr.End(id)
	if err != nil {
		return nil, fmt.Errorf("capprox.BuildCtx: %w", err)
	}
	st := apx.Stats
	rep.set("capprox.build_s", tr.Dur(id), "wall time of capprox.BuildCtx")
	rep.set("capprox.sample_s", st.SampleSeconds, "BuildStats: tree sampling, summed per tree")
	rep.set("capprox.race_s", st.RaceSeconds, "BuildStats: SplitGraph race share of sampling")
	rep.set("capprox.cutcap_s", st.CutCapSeconds, "BuildStats: exact cut capacities")
	rep.set("capprox.alpha_s", st.AlphaSeconds, "BuildStats: distortion measurement")
	rep.set("capprox.trees", float64(len(apx.Trees)), "")
	rep.set("capprox.alpha", apx.Alpha, "measured distortion")
	rep.set("congest.construction_rounds", float64(apx.Ledger.Total()), "")
	sh := &shadow{g: g, apx: apx, solver: sherman.NewSolver(g, apx), cfg: sherman.Config{Epsilon: Epsilon}}
	if w.Shards > 0 {
		tr.Do("shard.NewEngine", root, func() { sh.eng, err = shard.NewEngine(g, apx.Trees, apx.Scale, w.Shards) })
		if err != nil {
			return nil, fmt.Errorf("shard.NewEngine: %w", err)
		}
		sh.solver.SetEngine(sh.eng)
	}
	return sh, nil
}

// traceQueries replays pairs twice: untraced on router ru, then traced
// on router rt (a fresh router, so neither replay can hit the other's
// warm cache). Each traced query span holds the Router.MaxFlow call and
// the shadow solver's MaxFlowCtx on the same pair. Every answer goes
// through the correctness gate, and the shadow answer must equal the
// Router's bit for bit. It returns the last shadow answer (the kernels
// are timed on its vectors).
func traceQueries(ru, rt *distflow.Router, G *distflow.Graph, sh *shadow, pairs []Pair, tr *Tracer, rep *Report) *sherman.FlowResult {
	var untraced []float64
	for _, p := range pairs {
		ctx, cancel := capCtx()
		t0 := time.Now()
		res, err := ru.MaxFlowCtx(ctx, p.S, p.T)
		untraced = append(untraced, time.Since(t0).Seconds())
		cancel()
		rep.Tally.Op(err)
		if err == nil {
			checkAnswer(rep, G, p, res)
		}
	}

	var routerS, solverS, selfS, allocMB, gcs []float64
	var iters, restarts, outer, alphaUsed, esc float64
	var measured, msgs, bytes, itTotal int64
	phases := map[string]float64{}
	var last *sherman.FlowResult
	for _, p := range pairs {
		q := tr.Begin("query", 0)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		ctx, cancel := capCtx()
		rid := tr.Begin("distflow.Router.MaxFlowCtx", q)
		res, err := rt.MaxFlowCtx(ctx, p.S, p.T)
		tr.End(rid)
		cancel()
		runtime.ReadMemStats(&m1)
		ctx, cancel = capCtx()
		sid := tr.Begin("sherman.Solver.MaxFlowCtx", q)
		fr, ferr := sh.solver.MaxFlowCtx(ctx, p.S, p.T, sh.cfg, nil)
		tr.End(sid)
		cancel()
		tr.End(q)
		rep.Tally.Op(err)
		rep.Tally.Op(ferr)
		if err != nil || ferr != nil {
			continue
		}
		checkAnswer(rep, G, p, res)
		if math.Float64bits(fr.Value) != math.Float64bits(res.Value) {
			rep.Tally.Check(fmt.Errorf("pair %d-%d: shadow solver value %v differs from Router value %v", p.S, p.T, fr.Value, res.Value))
		} else {
			rep.Tally.Check(nil)
		}
		last = fr
		routerS = append(routerS, tr.Dur(rid))
		solverS = append(solverS, tr.Dur(sid))
		selfS = append(selfS, tr.Dur(rid)-tr.Dur(sid))
		allocMB = append(allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
		gcs = append(gcs, float64(m1.NumGC-m0.NumGC))
		iters += float64(fr.Iterations)
		restarts += float64(fr.Restarts)
		outer += float64(fr.Outer)
		alphaUsed += fr.AlphaUsed
		esc += float64(res.Escalations)
		for _, ph := range queryPhases {
			phases[ph] += float64(fr.Ledger.Phase(ph))
		}
		measured += res.MeasuredRounds
		msgs += res.Messages
		bytes += res.Bytes
		itTotal += int64(res.Iterations)
	}
	k := float64(len(routerS))
	if k == 0 {
		rep.Tally.Check(fmt.Errorf("no traced query answered"))
		return nil
	}
	rep.set("distflow.router_self_s", medianOf(selfS), "Router.MaxFlowCtx minus Solver.MaxFlowCtx, median per query")
	rep.set("distflow.escalations_per_query", esc/k, "")
	rep.set("sherman.solve_s", medianOf(solverS), "Solver.MaxFlowCtx, median per query")
	rep.set("sherman.iterations_per_query", iters/k, "")
	rep.set("sherman.restarts_per_query", restarts/k, "")
	rep.set("sherman.outer_per_query", outer/k, "")
	rep.set("sherman.alpha_used", alphaUsed/k, "mean AlphaUsed")
	for _, ph := range queryPhases {
		rep.set("congest.rounds."+ph, phases[ph]/k, "per query")
	}
	if itTotal > 0 {
		rep.set("shard.rounds_per_iter", float64(measured)/float64(itTotal), "measured engine rounds per gradient iteration")
		rep.set("shard.messages_per_iter", float64(msgs)/float64(itTotal), "")
		rep.set("shard.bytes_per_iter", float64(bytes)/float64(itTotal), "")
	}
	rep.set("runtime.alloc_mb_per_query", medianOf(allocMB), "allocated during Router.MaxFlowCtx")
	rep.set("runtime.gc_per_query", mean(gcs), "GC cycles during Router.MaxFlowCtx")
	rep.set("trace.overhead_s", medianOf(routerS)-medianOf(untraced),
		fmt.Sprintf("traced minus untraced Router.MaxFlowCtx median over %d pairs (%.4g s untraced)", len(pairs), medianOf(untraced)))
	return last
}

// kernelBudget bounds the time spent timing one kernel.
const kernelBudget = 150 * time.Millisecond

// timeKernel calls fn repeatedly, one span per call under parent, and
// returns the median seconds per call.
func timeKernel(tr *Tracer, parent int64, name string, fn func()) float64 {
	fn() // warm caches and lazily built state
	var d []float64
	start := time.Now()
	for len(d) < 5 || (len(d) < 400 && time.Since(start) < kernelBudget) {
		id := tr.Begin(name, parent)
		fn()
		tr.End(id)
		d = append(d, tr.Dur(id))
	}
	return medianOf(d)
}

// kernels times the per-iteration operators on vectors of the
// workload's size, taken from a real answer fr of the pair s-t: flat
// (single address space) and on a two-shard engine.
func kernels(sh *shadow, fr *sherman.FlowResult, s, t int, tr *Tracer, rep *Report) error {
	root := tr.Begin("kernels", 0)
	defer tr.End(root)
	g, apx := sh.g, sh.apx
	n, m := g.N(), g.M()
	f := fr.Flow
	invCap := make([]float64, m)
	for e, ed := range g.Edges() {
		invCap[e] = 1 / float64(ed.Cap)
	}
	w1, grad := make([]float64, m), make([]float64, m)
	div, r, pi := make([]float64, n), make([]float64, n), make([]float64, n)
	bs := graph.STDemand(n, s, t, 2*fr.Value) // leaves a nonzero residual
	residual := func() {
		g.DivergenceInto(f, div)
		for v := range r {
			r[v] = bs[v] - div[v]
		}
	}
	residual()
	ta := 2 * fr.AlphaUsed
	scratch := apx.NewEvalScratch()

	softmax := timeKernel(tr, root, "numutil.SoftMaxGradScaledPar", func() { numutil.SoftMaxGradScaledPar(f, invCap, w1) })
	rep.set("numutil.softmax_s", softmax, "per call")
	rep.set("graph.divergence_s", timeKernel(tr, root, "graph.Graph.DivergenceInto", func() { g.DivergenceInto(f, div) }), "per call")
	flatResidual := timeKernel(tr, root, "flat.residual", residual)
	potential := timeKernel(tr, root, "capprox.Approximator.PotentialRT", func() { apx.PotentialRT(r, ta, scratch, pi) })
	rep.set("capprox.potential_rt_s", potential, "per call")
	rep.set("capprox.norm_rb_s", timeKernel(tr, root, "capprox.Approximator.NormRb", func() { apx.NormRb(r) }), "per call")
	var rerr error
	rep.set("sherman.residual_route_s", timeKernel(tr, root, "sherman.Solver.RouteResidualOnST", func() {
		_, rerr = sh.solver.RouteResidualOnST(r)
	}), "per call")
	rep.Tally.Op(rerr)

	eng := sh.eng
	if eng == nil {
		var err error
		tr.Do("shard.NewEngine", root, func() { eng, err = shard.NewEngine(g, apx.Trees, apx.Scale, 2) })
		if err != nil {
			return fmt.Errorf("shard.NewEngine: %w", err)
		}
		defer eng.Close()
	}
	div2, r2, pi2 := make([]float64, n), make([]float64, n), make([]float64, n)
	shSoftmax := timeKernel(tr, root, "shard.Engine.SoftMaxGradScaled", func() { eng.SoftMaxGradScaled(f, invCap, grad) })
	shResidual := timeKernel(tr, root, "shard.Engine.Residual", func() { eng.Residual(f, bs, div2, r2) })
	shPotential := timeKernel(tr, root, "shard.Engine.PotentialRT", func() { eng.PotentialRT(r, ta, scratch.Sub, scratch.PT, pi2) })
	shGradient := timeKernel(tr, root, "shard.Engine.GradientDelta", func() { eng.GradientDelta(w1, invCap, ta, pi, grad) })
	rep.set("shard.softmax_s", shSoftmax, fmt.Sprintf("per call, %d shards", eng.Shards()))
	rep.set("shard.residual_s", shResidual, "per call")
	rep.set("shard.potential_rt_s", shPotential, "per call")
	rep.set("shard.gradient_delta_s", shGradient, "per call (no exported flat counterpart)")
	rep.set("shard.overhead_ratio", (shSoftmax+shResidual+shPotential)/(softmax+flatResidual+potential),
		"sharded / flat time of soft-max, residual and PotentialRT on the same inputs")
	return nil
}
