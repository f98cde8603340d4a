package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"distflow"
	"distflow/internal/graph"
)

// Workload is one set of inputs the benchmark runs. Everything it
// sends to the program under test is generated: the graphs and the
// closed-loop pairs from a fixed pool, their order and the serving
// plan from the workload seed. The program receives only those
// generated inputs.
type Workload struct {
	Name string
	Why  string
	// Gated workloads are the ones BENCHMARK.json lists. grid-deep is
	// not: the share of its queries that escalate sits near one half
	// and varies from seed to seed, so its median latency and rounds
	// flip between the escalated and plain modes and no bound holds.
	// It stays runnable (--workload grid-deep, --workload all) for the
	// stepper's per-layer attribution.
	Gated bool
	// Serve selects the open-loop serving workload; otherwise one
	// client sends Router.MaxFlowCtx calls in a closed loop.
	Serve  bool
	Family string // "gnp" or "grid"
	Shards int    // Options.Shards
	// Graphs is how many graphs of the pool one run uses; pool pair k
	// of a closed loop goes to graph k mod Graphs. serve-mixed serves
	// one.
	Graphs int
	// PoolRate sizes a closed loop's pair pool: PoolRate pairs per
	// measured second, rounded up. It is set so that the seed commit
	// answers the pool in about 80% of the measured time on a 2-vCPU
	// VM, from its mean query latency over a longer run of the pool.
	// Every run sends the whole pool.
	PoolRate float64
	// Prefix is how many leading pool pairs the value fingerprint
	// covers; gnp-cold and gnp-shard2 share them, so their fingerprints
	// compare the two engines bit for bit.
	Prefix int
	// TailPct is the percentile reported as the latency tail.
	TailPct float64
	// TracePrefix queries the untraced run sends to the first graph are
	// replayed untraced and traced in a traced run.
	TracePrefix int
}

// Epsilon is the approximation target of every workload.
const Epsilon = 0.5

var workloads = []Workload{
	{Name: "gnp-cold", Gated: true, Family: "gnp", Graphs: 16, PoolRate: 2.0, Prefix: 24, TailPct: 75, TracePrefix: 4,
		Why: "GNP n=2500, closed loop over a fixed pool of distinct pairs in seed order: per-iteration kernels (soft-max exp, R/Rt sweeps, divergence) dominate"},
	{Name: "grid-deep", Family: "grid", Graphs: 16, PoolRate: 0.6, Prefix: 16, TailPct: 50, TracePrefix: 4,
		Why: "30x30 grid, D=58, closed loop: ~12x the iterations of gnp-cold on small vectors, so the stepper and D-driven rounds dominate"},
	{Name: "serve-mixed", Gated: true, Family: "gnp", Graphs: 1, Serve: true, TailPct: 75, TracePrefix: 1,
		Why: "one Server at a fixed open-loop rate, Zipf-hot and fresh pairs, interleaved capacity/topology updates: warm cache, coalescing, epochs, update paths"},
	{Name: "gnp-shard2", Gated: true, Family: "gnp", Shards: 2, Graphs: 16, PoolRate: 1.0, Prefix: 24, TailPct: 75, TracePrefix: 2,
		Why: "gnp-cold's graphs and first pool pairs with Options.Shards=2: the shard engine's boundary exchange, not arithmetic, dominates"},
}

func workloadByName(name string) (Workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// options are the workload's library options: the defaults (seed 1,
// warm cache on) apart from ε and the shard count.
func (w Workload) options() distflow.Options {
	return distflow.Options{Epsilon: Epsilon, Shards: w.Shards}
}

// opCap is how long one query or serving request may run before the
// benchmark gives up on it and counts it as failed, so that a runaway
// solve cannot hold a run for minutes. Healthy operations finish far
// below it.
const opCap = 20 * time.Second

// capCtx is the context of one query or request: it is cancelled at
// opCap but carries no deadline. A deadline is not neutral: under one
// the solver caps its quality escalations at one instead of four and
// returns degraded answers, so every call the benchmark makes takes the
// same path as a plain Router.MaxFlow or Server.MaxFlow.
func capCtx() (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(context.Background())
	t := time.AfterFunc(opCap, cancel)
	return ctx, func() {
		t.Stop()
		cancel()
	}
}

// routerSeed is the approximator seed of a Router with default Options
// (Options.Seed 0 means 1).
const routerSeed = 1

// Seed streams: each kind of generated input draws from its own PRNG
// stream so that, e.g., the pair sequence does not shift when the
// graph generator changes how many variates it consumes.
const (
	streamPairs uint64 = iota + 1
	streamServe
	streamUpdates
	streamOrder
	streamGraphs = 1024 // graph k of a run uses streamGraphs+k
)

// subSeed derives the seed of one input stream from the workload seed
// (splitmix64 finalizer over the pair).
func subSeed(seed int64, stream uint64) int64 {
	z := uint64(seed) + stream*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// poolSeed fixes the graphs every run uses and the pairs every run
// queries. How hard a query is for the solver depends on its graph's
// congestion-approximator sample and on the pair: iteration counts
// over random pairs have a long upper tail (a few pairs in a hundred
// take ten times the median). Drawing graphs and pairs from the
// workload seed made the run-to-run spread measure which inputs were
// drawn: over 90 random pairs the p75 latency alone spreads by about
// 16% of its median, before any timing noise. The pools are the first
// graphs and pairs of fixed streams, not a selection, so hard inputs
// appear in them as often as they occur. The workload seed draws the
// order the closed loops send the pool in, and all of serve-mixed's
// plan apart from its pairs.
const poolSeed = 1

// pairPool returns the fixed pool of size distinct s-t pairs over
// vertices [0,n).
func pairPool(n, size int) []Pair {
	return newPairStream(n, poolSeed).Take(size)
}

// poolSize is the number of pool pairs a closed-loop run of w sends in
// seconds of measured time.
func (w Workload) poolSize(seconds float64) int {
	return max(int(math.Ceil(seconds*w.PoolRate)), 1)
}

// queryOrder is the seed-drawn order in which a closed loop sends the
// pool's size pairs.
func queryOrder(size int, seed int64) []int {
	return rand.New(rand.NewSource(subSeed(seed, streamOrder))).Perm(size)
}

// makeGraph generates graph k of the pool. Its stream is independent of
// the Router's tree-sampling seed: a graph drawn from the same PRNG
// stream as the sampler correlates with the sampled trees (GNP's
// backbone tree is drawn first) and flatters the approximator.
func makeGraph(family string, k int) (*graph.Graph, error) {
	rng := rand.New(rand.NewSource(subSeed(poolSeed, streamGraphs+uint64(k))))
	switch family {
	case "gnp":
		const n, degree = 2500, 8.0
		return graph.CapUniform(graph.GNP(n, degree/n, rng), 64, rng), nil
	case "grid":
		return graph.CapUniform(graph.Grid(30, 30), 64, rng), nil
	}
	return nil, fmt.Errorf("unknown graph family %q", family)
}

// publicGraph copies an internal graph into the library's Graph type.
func publicGraph(g *graph.Graph) *distflow.Graph {
	G := distflow.NewGraph(g.N())
	for _, e := range g.Edges() {
		G.AddEdge(e.U, e.V, e.Cap)
	}
	return G
}

// Pair is one s-t query.
type Pair struct{ S, T int }

// pairStream yields uniformly random s-t pairs over vertices [0,n),
// never the same unordered pair twice, so no closed-loop query and no
// fresh serving request can be answered from the warm cache.
type pairStream struct {
	n    int
	rng  *rand.Rand
	seen map[Pair]bool
}

func newPairStream(n int, seed int64) *pairStream {
	return &pairStream{n: n, rng: rand.New(rand.NewSource(subSeed(seed, streamPairs))), seen: map[Pair]bool{}}
}

func (p *pairStream) Next() Pair {
	for {
		s, t := p.rng.Intn(p.n), p.rng.Intn(p.n)
		if s == t {
			continue
		}
		key := Pair{min(s, t), max(s, t)}
		if p.seen[key] {
			continue
		}
		p.seen[key] = true
		return Pair{s, t}
	}
}

func (p *pairStream) Take(k int) []Pair {
	out := make([]Pair, k)
	for i := range out {
		out[i] = p.Next()
	}
	return out
}

// Serving workload parameters. serve-mixed runs one Server with one
// open-loop generator and one updater. The repo has no recorded
// traffic, so the mix is an assumption: where the serving bench of
// cmd/bench (-serve) fixes a value, the mix takes it (hot share,
// hot-set size, topology batch shape); the rest is chosen here and
// says so (serveSources). The rate is one the seed commit sustains
// without a growing backlog on two cores (serve.backlog_ratio stays
// near 1) and leaves the server mostly idle, so that queueing does not
// multiply a slow spell of a shared host into much longer waits; the
// latency limit decides goodput.
const (
	serveRate         = 1.5 // requests per second
	serveLatencyLimit = 2 * time.Second
	serveHotPairs     = 8
	serveZipfS        = 1.5 // Zipf exponent over the hot set
	serveFreshShare   = 0.5 // share of requests on never-seen pairs
	serveUpdateEvery  = 5 * time.Second
	serveCapEdits     = 16 // edges re-capacitated per capacity batch
	serveTopoEdges    = 4  // edges added (and later deleted) per topology batch
	serveTopoLinks    = 3  // links of the vertex each topology batch adds
	serveQuiesced     = 12 // fresh pairs checked on the final graph
)

// serveSources says where each serving parameter comes from.
var serveSources = map[string]string{
	"rate_qps":        "measured: the seed commit keeps up at this rate with its server idle half the time or more; at 2/s queueing doubled the run-to-run spread of latency",
	"latency_limit_s": "assumption: several times the seed commit's cold-solve median (about 0.3 s)",
	"hot_pairs":       "cmd/bench -serve: its hot pool is -queries pairs, 8 by default",
	"fresh_share":     "cmd/bench -serve: half its requests are fresh random pairs",
	"zipf_s":          "assumption: the issue asks for a Zipf skew; cmd/bench -serve draws the hot pool uniformly",
	"update_every_s":  "assumption: 6 batches per 30 s run; cmd/bench -serve spreads 10 over its load",
	"cap_edits":       "assumption: cmd/bench -serve sends no capacity batches",
	"topo_edges":      "cmd/bench -serve: its churn batch deletes 4 and inserts up to 4 edges",
	"topo_links":      "cmd/bench -serve: its churn batch adds one vertex with 3 links",
}

// Request is one scheduled serving request.
type Request struct {
	Due  time.Duration // offset from the start of the load
	Pair Pair
}

// UpdateOp is one scheduled update batch. Capacity batches carry their
// edits; topology batches carry the endpoints of the edges they add
// and the vertex they add, and delete whatever the previous topology
// batch added (so the graph stays connected by construction).
type UpdateOp struct {
	Due   time.Duration
	Topo  bool
	Caps  []distflow.CapEdit
	Adds  [][3]int64 // u, v, capacity
	Links []distflow.Link
}

// ServePlan is the complete input of one server.
type ServePlan struct {
	Hot      []Pair
	Requests []Request
	Updates  []UpdateOp
	Quiesced []Pair // fresh pairs checked on the final graph
}

// makeServePlan schedules window worth of requests and updates on a
// graph with n vertices and m edges: one request every 1/serveRate
// seconds, and an update batch every serveUpdateEvery from half an
// interval in, capacity and topology batches in turn. The pairs come
// from the fixed pool: the hot set, then the fresh pairs in the order
// requests use them, then the quiesced sample. The seed draws which
// requests are fresh (exactly serveFreshShare of them), which hot pair
// each other request asks for, and the update batches.
func makeServePlan(n, m int, seed int64, window time.Duration) ServePlan {
	pairs := newPairStream(n, poolSeed)
	var plan ServePlan
	plan.Hot = pairs.Take(serveHotPairs)
	rng := rand.New(rand.NewSource(subSeed(seed, streamServe)))
	count := int(window.Seconds() * serveRate)
	fresh := make([]bool, count)
	for _, i := range rng.Perm(count)[:int(math.Round(float64(count)*serveFreshShare))] {
		fresh[i] = true
	}
	zipf := rand.NewZipf(rng, serveZipfS, 1, serveHotPairs-1)
	for i := range count {
		r := Request{Due: time.Duration(float64(i) / serveRate * float64(time.Second))}
		if fresh[i] {
			r.Pair = pairs.Next()
		} else {
			r.Pair = plan.Hot[zipf.Uint64()]
		}
		plan.Requests = append(plan.Requests, r)
	}
	urng := rand.New(rand.NewSource(subSeed(seed, streamUpdates)))
	for i, due := 0, serveUpdateEvery/2; due < window; i, due = i+1, due+serveUpdateEvery {
		op := UpdateOp{Due: due, Topo: i%2 == 1}
		if op.Topo {
			for j := 0; j < serveTopoEdges; j++ {
				u, v := urng.Intn(n), urng.Intn(n)
				for u == v {
					v = urng.Intn(n)
				}
				op.Adds = append(op.Adds, [3]int64{int64(u), int64(v), 1 + urng.Int63n(64)})
			}
			for j := 0; j < serveTopoLinks; j++ {
				op.Links = append(op.Links, distflow.Link{To: urng.Intn(n), Cap: 1 + urng.Int63n(64)})
			}
		} else {
			for j := 0; j < serveCapEdits; j++ {
				op.Caps = append(op.Caps, distflow.CapEdit{Edge: urng.Intn(m), Cap: 1 + urng.Int63n(64)})
			}
		}
		plan.Updates = append(plan.Updates, op)
	}
	plan.Quiesced = pairs.Take(serveQuiesced)
	return plan
}
