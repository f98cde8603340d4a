package main

// The -serve mode benchmarks the concurrent serving front-end
// (DESIGN.md §9): closed-loop workers drive max-flow queries through
// distflow.Server — admission control plus the coalescing batch
// scheduler — while topology churn batches publish new epochs
// underneath. The JSON document (schema 8) records throughput (qps)
// and latency quantiles (p50/p99) for the sustained-load phase — both
// hardware-dependent and info-only — plus the gated drift fingerprint:
// after the load quiesces, a fixed query workload on the served router
// vs a fresh rebuild on the same final graph (serve_max_value_err, the
// ≤ 0.1% acceptance gate).
//
// Between load and drift sits the chaos phase (DESIGN.md §11,
// schema 8): deadline-bounded queries with caller cancellations, churn
// batches whose resamples fail on an injected deterministic schedule, a
// recovered solver panic, and an overload burst against a MaxInFlight=1
// server — all against the same router. The phase records the deadline
// hit rate, degraded-answer count and worst certificate bound, the
// per-cause rejection counters, and the two deterministic fault counts
// (serve_panics, serve_injected_update_failures — benchdiff-gated). It
// ends with a goroutine-settle check: leaked drain loops or parked
// waiters fail the bench.
//
// The bench disables the warm-start cache so the drift fingerprint is
// a pure function of (seed, churn schedule, final graph) — identical
// across worker counts and load timing. Coalescing does not depend on
// the cache: concurrent repeats of one (s,t) pair still share a single
// solve, which is what the coalesced/batch counters measure.
// BENCH_serve.json in the repository root is the recorded n=2500 run;
// the -serve-ceiling flag turns the p99 latency into a CI smoke gate.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"distflow"
	"distflow/internal/faultinject"
	"distflow/internal/graph"
)

// serveLoadWorkers is the closed-loop client count of the sustained
// load phase. Fixed (not GOMAXPROCS-derived) so the query schedule is
// comparable across runners; the solve parallelism underneath still
// scales with the machine.
const serveLoadWorkers = 8

// ServeBenchResult is the JSON document emitted by -serve -json.
type ServeBenchResult struct {
	Schema     int             `json:"schema"`
	Mode       string          `json:"mode"`
	Config     FlowBenchConfig `json:"config"`
	GoMaxProcs int             `json:"go_max_procs"`
	NumCPU     int             `json:"num_cpu"`
	M          int             `json:"m"`

	// RouterBuildSeconds is the wall clock of the initial NewRouter.
	RouterBuildSeconds float64 `json:"router_build_seconds"`

	// Sustained-load phase shape: closed-loop workers issuing
	// TotalQueries max-flow submissions, half of them drawn from a hot
	// pool of HotPairs pairs (the coalescing targets).
	LoadWorkers  int `json:"load_workers"`
	TotalQueries int `json:"serve_total_queries"`
	HotPairs     int `json:"serve_hot_pairs"`

	// Churn applied during the load: fixed batches through
	// Server.UpdateTopology, the same mixed batches the -churn mode
	// draws (edge deletes/inserts, vertex adds/removals).
	ChurnBatches     int `json:"churn_batches"`
	OpsEdgeDeletes   int `json:"ops_edge_deletes"`
	OpsEdgeInserts   int `json:"ops_edge_inserts"`
	OpsVertexAdds    int `json:"ops_vertex_adds"`
	OpsVertexRemoves int `json:"ops_vertex_removes"`

	// Throughput and latency of the load phase (wall clock,
	// hardware-dependent, never gated by benchdiff).
	LoadSeconds float64 `json:"serve_load_seconds"`
	QPS         float64 `json:"qps"`
	P50Seconds  float64 `json:"serve_p50_seconds"`
	P99Seconds  float64 `json:"serve_p99_seconds"`

	// Scheduler counters for the load phase.
	CoalescedQueries int64 `json:"serve_coalesced"`
	BatchSolves      int64 `json:"serve_batches"`
	RejectedQueries  int64 `json:"serve_rejected"`
	// QueryErrors counts load queries that failed because churn removed
	// their endpoint mid-load — expected under vertex churn, and the
	// only error class tolerated.
	QueryErrors int64  `json:"serve_query_errors"`
	FinalEpoch  uint64 `json:"serve_final_epoch"`

	// Chaos phase (schema 8). Deadline-bounded queries: hit rate and
	// chaos-phase latency are hardware-dependent (info-only, optionally
	// smoke-gated by -serve-deadline-ceiling); the two injected fault
	// counts are deterministic and benchdiff-gated.
	DeadlineSeconds float64 `json:"serve_deadline_seconds"`
	ChaosQueries    int     `json:"serve_chaos_queries"`
	ChaosSeconds    float64 `json:"serve_chaos_seconds"`
	ChaosP99Seconds float64 `json:"serve_chaos_p99_seconds"`
	// DeadlineHitRate is the fraction of deadline-bounded chaos queries
	// that delivered an answer (full or degraded) before their deadline.
	DeadlineHitRate float64 `json:"serve_deadline_hit_rate"`
	// Degraded answers delivered during chaos, and the worst measured
	// certificate bound among them (Result.CertBound: Value ≥
	// OPT/CertBound).
	DegradedAnswers      int64   `json:"serve_degraded"`
	DegradedMaxCertBound float64 `json:"serve_degraded_max_cert_bound"`
	// Per-cause rejection/abandon counters over the chaos phase.
	CanceledQueries  int64 `json:"serve_canceled"`
	RejectedOverload int64 `json:"serve_rejected_overload"`
	RejectedDeadline int64 `json:"serve_rejected_deadline"`
	// Panics counts recovered solve panics (deterministically 1: the
	// panic probe fires once, Limit=1). InjectedUpdateFailures counts
	// chaos churn batches dropped by the injected resample failure
	// (deterministic: Every=3 over ChaosChurnBatches hits).
	Panics                 int64 `json:"serve_panics"`
	ChaosChurnBatches      int   `json:"serve_chaos_churn_batches"`
	InjectedUpdateFailures int64 `json:"serve_injected_update_failures"`

	// Final graph shape (deterministic: the churn schedule is a pure
	// function of the seed; the serving load never mutates the graph).
	FinalN     int `json:"final_n"`
	FinalLiveM int `json:"final_live_m"`
	FinalM     int `json:"final_m"`

	// Drift fingerprint after quiescing: the fixed query workload
	// through the (now idle) server vs a fresh rebuild on the final
	// graph. Both are (1+ε)-approximate; ServeMaxValueErr is the largest
	// relative per-query deviation (the ≤ 0.1% acceptance gate).
	ValueSumServed   float64 `json:"value_sum_served"`
	ValueSumRebuilt  float64 `json:"value_sum_rebuilt"`
	ServeMaxValueErr float64 `json:"serve_max_value_err"`
	Escalations      int     `json:"escalations"`
	Alpha            float64 `json:"alpha"`
}

func runServeBench(cfg FlowBenchConfig, jsonPath string, p99Ceiling float64, deadline time.Duration, deadlineCeiling float64) error {
	if cfg.N < 16 {
		return fmt.Errorf("-serve needs -n >= 16")
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
	res := ServeBenchResult{
		Schema:       benchSchema,
		Mode:         "serve",
		Config:       cfg,
		GoMaxProcs:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		M:            G.M(),
		LoadWorkers:  serveLoadWorkers,
		TotalQueries: 12 * cfg.Queries,
		HotPairs:     cfg.Queries,
		// Same batch count and churn seed as the -churn mode, so the two
		// benches drive the router through an identical update sequence
		// and their drift fingerprints are directly comparable.
		ChurnBatches: 10,
	}
	fmt.Printf("serve bench: n=%d m=%d eps=%v workers=%d GOMAXPROCS=%d\n",
		G.N(), G.M(), cfg.Epsilon, cfg.Workers, res.GoMaxProcs)

	opts := distflow.Options{Epsilon: cfg.Epsilon, Seed: cfg.Seed, DisableWarmStart: true}
	start := time.Now()
	r, err := distflow.NewRouter(G, opts)
	if err != nil {
		return err
	}
	res.RouterBuildSeconds = time.Since(start).Seconds()
	fmt.Printf("  router build          %8.3fs (alpha=%.3f)\n", res.RouterBuildSeconds, r.Alpha())
	srv := distflow.NewServer(r, distflow.ServeOptions{})

	// Hot pairs: the coalescing targets every worker revisits.
	hot := churnBenchPairs(G, res.HotPairs, cfg.Seed+2)

	// Sustained load: closed-loop workers, fixed total query budget
	// handed out via a shared ticket counter, per-query latency
	// collected per worker and merged after the join.
	var (
		tickets   = make(chan struct{}, res.TotalQueries)
		latencies = make([][]float64, serveLoadWorkers)
		qErrs     = make([]int64, serveLoadWorkers)
		wg        sync.WaitGroup
	)
	for i := 0; i < res.TotalQueries; i++ {
		tickets <- struct{}{}
	}
	close(tickets)
	loadStart := time.Now()
	for w := 0; w < serveLoadWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wrng := rand.New(rand.NewSource(cfg.Seed + 100 + int64(w)))
			for range tickets {
				var p distflow.STPair
				if wrng.Intn(2) == 0 {
					p = hot[wrng.Intn(len(hot))]
				} else {
					p = distflow.STPair{S: wrng.Intn(cfg.N), T: wrng.Intn(cfg.N)}
					if p.S == p.T {
						p.T = (p.S + 1) % cfg.N
					}
				}
				qs := time.Now()
				_, err := srv.MaxFlow(p.S, p.T)
				latencies[w] = append(latencies[w], time.Since(qs).Seconds())
				if err != nil {
					// Vertex churn can invalidate a pair mid-load; that is
					// the serving reality this bench models, not a failure.
					qErrs[w]++
				}
			}
		}(w)
	}

	// Churn thread (this goroutine): the fixed batch schedule, spaced
	// across the load by the served-query counter. Timing does not
	// affect the final state — only the batch sequence does.
	churnRng := rand.New(rand.NewSource(cfg.Seed + 3))
	var churnOps ChurnBenchResult
	for b := 0; b < res.ChurnBatches; b++ {
		target := int64(res.TotalQueries * (b + 1) / (res.ChurnBatches + 1))
		for srv.Stats().Queries < target {
			time.Sleep(time.Millisecond)
		}
		batch := makeChurnBatch(G, churnRng, &churnOps)
		if _, err := srv.UpdateTopology(batch); err != nil {
			return fmt.Errorf("churn batch %d during load: %w", b, err)
		}
	}
	wg.Wait()
	res.LoadSeconds = time.Since(loadStart).Seconds()
	res.OpsEdgeDeletes = churnOps.OpsEdgeDeletes
	res.OpsEdgeInserts = churnOps.OpsEdgeInserts
	res.OpsVertexAdds = churnOps.OpsVertexAdds
	res.OpsVertexRemoves = churnOps.OpsVertexRemoves

	var all []float64
	for w := range latencies {
		all = append(all, latencies[w]...)
		res.QueryErrors += qErrs[w]
	}
	sort.Float64s(all)
	res.QPS = float64(res.TotalQueries) / res.LoadSeconds
	res.P50Seconds = quantile(all, 0.50)
	res.P99Seconds = quantile(all, 0.99)
	st := srv.Stats()
	res.CoalescedQueries = st.Coalesced
	res.BatchSolves = st.Batches
	res.RejectedQueries = st.Rejected
	res.FinalEpoch = st.EpochSeq
	res.FinalN = G.N()
	res.FinalM = G.M()
	res.FinalLiveM = G.LiveM()
	res.Alpha = r.Alpha()
	fmt.Printf("  sustained load        %d queries / %.3fs = %.1f qps (p50 %.1fms, p99 %.1fms)\n",
		res.TotalQueries, res.LoadSeconds, res.QPS, 1000*res.P50Seconds, 1000*res.P99Seconds)
	fmt.Printf("  scheduler             %d batches | %d coalesced | %d rejected | %d churn-invalidated | epoch %d\n",
		res.BatchSolves, res.CoalescedQueries, res.RejectedQueries, res.QueryErrors, res.FinalEpoch)

	if err := runServeChaos(&res, cfg, srv, r, G, deadline, deadlineCeiling); err != nil {
		return err
	}

	// Drift: quiesced serving vs a fresh router on the final graph.
	fresh, err := distflow.NewRouter(G, opts)
	if err != nil {
		return fmt.Errorf("rebuild on churned graph: %w", err)
	}
	pairs := churnBenchPairs(G, cfg.Queries, cfg.Seed)
	for _, p := range pairs {
		a, err := srv.MaxFlow(p.S, p.T)
		if err != nil {
			return fmt.Errorf("served query %d-%d: %w", p.S, p.T, err)
		}
		b, err := fresh.MaxFlow(p.S, p.T)
		if err != nil {
			return fmt.Errorf("fresh query %d-%d: %w", p.S, p.T, err)
		}
		res.ValueSumServed += a.Value
		res.ValueSumRebuilt += b.Value
		res.Escalations += a.Escalations
		if b.Value != 0 {
			if d := math.Abs(a.Value-b.Value) / math.Abs(b.Value); d > res.ServeMaxValueErr {
				res.ServeMaxValueErr = d
			}
		}
	}
	fmt.Printf("  query drift           served %.6f vs rebuilt %.6f (max %.3f%%, %d escalations)\n",
		res.ValueSumServed, res.ValueSumRebuilt, 100*res.ServeMaxValueErr, res.Escalations)

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
	return serveBudget.check(res.P99Seconds, p99Ceiling)
}

// serveChaosChurnBatches is the fixed topology batch count of the
// chaos phase; with the resample fault armed at Every=3 the batches at
// hits 1 and 4 fail deterministically (2 injected failures).
const serveChaosChurnBatches = 6

// runServeChaos is the chaos phase between load and drift: it probes
// the panic boundary once, then runs deadline-bounded queries (with a
// deterministic fraction cancelled by their callers) concurrently with
// churn whose resamples fail on an injected schedule, bursts an
// overloaded server, and finally checks that every goroutine the phase
// started has exited. Faults are disarmed before returning so the
// drift phase measures the clean path.
func runServeChaos(res *ServeBenchResult, cfg FlowBenchConfig, srv *distflow.Server,
	r *distflow.Router, G *distflow.Graph, deadline time.Duration, deadlineCeiling float64) error {
	if deadline <= 0 {
		deadline = 750 * time.Millisecond
	}
	defer faultinject.Reset()
	res.DeadlineSeconds = deadline.Seconds()
	res.ChaosQueries = 16 * cfg.Queries
	res.ChaosChurnBatches = serveChaosChurnBatches
	st0 := srv.Stats()
	baseline := runtime.NumGoroutine()
	chaosStart := time.Now()

	// Panic probe: exactly one batch solve panics (Limit=1) and is
	// recovered at the server boundary; the query fails, serving
	// continues. Sequential, so the count is deterministic.
	probe := churnBenchPairs(G, 1, cfg.Seed+4)[0]
	disarmPanic := faultinject.Arm(distflow.FaultSiteServeSolve, faultinject.Fault{Panic: true, Limit: 1})
	if _, err := srv.MaxFlow(probe.S, probe.T); err == nil {
		disarmPanic()
		return fmt.Errorf("panic probe: injected panic did not fail the query")
	}
	disarmPanic()
	if _, err := srv.MaxFlow(probe.S, probe.T); err != nil {
		return fmt.Errorf("query after recovered panic: %w", err)
	}

	// Deadline-bounded load with caller cancellations: every 5th query
	// is abandoned at deadline/4.
	hot := churnBenchPairs(G, cfg.Queries, cfg.Seed+5)
	var (
		tickets   = make(chan int, res.ChaosQueries)
		wg        sync.WaitGroup
		delivered atomic.Int64
		degraded  atomic.Int64
		maxCert   = make([]float64, serveLoadWorkers)
		lats      = make([][]float64, serveLoadWorkers)
	)
	for i := 0; i < res.ChaosQueries; i++ {
		tickets <- i
	}
	close(tickets)
	for w := 0; w < serveLoadWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wrng := rand.New(rand.NewSource(cfg.Seed + 300 + int64(w)))
			for i := range tickets {
				p := hot[wrng.Intn(len(hot))]
				ctx, cancel := context.WithTimeout(context.Background(), deadline)
				var timer *time.Timer
				if i%5 == 4 {
					timer = time.AfterFunc(deadline/4, cancel)
				}
				qs := time.Now()
				qres, err := srv.MaxFlowCtx(ctx, p.S, p.T)
				lats[w] = append(lats[w], time.Since(qs).Seconds())
				cancel()
				if timer != nil {
					timer.Stop()
				}
				if err == nil {
					delivered.Add(1)
					if qres.Degraded {
						degraded.Add(1)
						if qres.CertBound > maxCert[w] {
							maxCert[w] = qres.CertBound
						}
					}
				}
			}
		}(w)
	}

	// Chaos churn (this goroutine), spaced across the chaos queries:
	// every third resample attempt fails by injection, exercising the
	// drop-the-fork path under live deadline queries.
	disarmTopo := faultinject.Arm(distflow.FaultSiteTopoResample, faultinject.Fault{Every: 3})
	churnRng := rand.New(rand.NewSource(cfg.Seed + 7))
	var chaosOps ChurnBenchResult
	for b := 0; b < res.ChaosChurnBatches; b++ {
		target := st0.Queries + int64(res.ChaosQueries*(b+1)/(res.ChaosChurnBatches+1))
		for srv.Stats().Queries < target {
			time.Sleep(time.Millisecond)
		}
		batch := makeChurnBatch(G, churnRng, &chaosOps)
		if _, err := srv.UpdateTopology(batch); err != nil {
			if !errors.Is(err, faultinject.ErrInjected) {
				disarmTopo()
				return fmt.Errorf("chaos churn batch %d: %w", b, err)
			}
			res.InjectedUpdateFailures++
		}
	}
	wg.Wait()
	disarmTopo()

	// Overload burst: a MaxInFlight=1 server on the same router, hit by
	// concurrent submissions — the surplus must shed fast with
	// ErrOverloaded, never queue. (The count is scheduling-dependent:
	// info-only.)
	srv2 := distflow.NewServer(r, distflow.ServeOptions{MaxInFlight: 1})
	var burstWG sync.WaitGroup
	for w := 0; w < serveLoadWorkers; w++ {
		burstWG.Add(1)
		go func() {
			defer burstWG.Done()
			ctx, cancel := context.WithTimeout(context.Background(), deadline)
			defer cancel()
			srv2.MaxFlowCtx(ctx, probe.S, probe.T) //nolint:errcheck — overload errors are the point
		}()
	}
	burstWG.Wait()
	res.ChaosSeconds = time.Since(chaosStart).Seconds()

	var all []float64
	for w := range lats {
		all = append(all, lats[w]...)
		if maxCert[w] > res.DegradedMaxCertBound {
			res.DegradedMaxCertBound = maxCert[w]
		}
	}
	sort.Float64s(all)
	res.ChaosP99Seconds = quantile(all, 0.99)
	res.DeadlineHitRate = float64(delivered.Load()) / float64(res.ChaosQueries)
	res.DegradedAnswers = degraded.Load()
	st1 := srv.Stats()
	st2 := srv2.Stats()
	res.CanceledQueries = st1.Canceled - st0.Canceled
	res.RejectedOverload = st1.RejectedOverload - st0.RejectedOverload + st2.RejectedOverload
	res.RejectedDeadline = st1.RejectedDeadline - st0.RejectedDeadline + st2.RejectedDeadline
	res.Panics = st1.Panics - st0.Panics + st2.Panics

	// Post-chaos graph is what the drift phase rebuilds against;
	// re-snapshot the final-shape fields the load phase recorded.
	res.FinalEpoch = st1.EpochSeq
	res.FinalN = G.N()
	res.FinalM = G.M()
	res.FinalLiveM = G.LiveM()
	res.Alpha = r.Alpha()

	// Settle: every goroutine the chaos phase started (drain loops,
	// abandoned waiters' deliveries, cancel timers) must exit — a leak
	// here is a hung query and fails the bench.
	settleBy := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+2 && time.Now().Before(settleBy) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline+2 {
		return fmt.Errorf("goroutine leak after chaos phase: %d > baseline %d", n, baseline)
	}

	fmt.Printf("  chaos                 %d queries / %.3fs (p99 %.1fms, deadline %.0fms hit %.1f%%) | %d degraded (cert ≤ %.2f) | %d canceled\n",
		res.ChaosQueries, res.ChaosSeconds, 1000*res.ChaosP99Seconds, 1000*res.DeadlineSeconds,
		100*res.DeadlineHitRate, res.DegradedAnswers, res.DegradedMaxCertBound, res.CanceledQueries)
	fmt.Printf("  chaos faults          %d/%d churn batches dropped (injected) | %d panic recovered | %d overload-shed | %d deadline-rejected\n",
		res.InjectedUpdateFailures, res.ChaosChurnBatches, res.Panics, res.RejectedOverload, res.RejectedDeadline)

	if res.Panics != 1 {
		return fmt.Errorf("chaos panic count = %d, want exactly 1", res.Panics)
	}
	if want := int64((res.ChaosChurnBatches + 2) / 3); res.InjectedUpdateFailures != want {
		return fmt.Errorf("injected update failures = %d, want %d (Every=3 over %d batches)",
			res.InjectedUpdateFailures, want, res.ChaosChurnBatches)
	}
	if err := serveDeadlineBudget.check(res.ChaosP99Seconds, deadlineCeiling*deadline.Seconds()); err != nil {
		return err
	}
	faultinject.Reset()
	return nil
}

// quantile returns the q-quantile of sorted (nearest-rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
