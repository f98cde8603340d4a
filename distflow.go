// Package distflow is a Go implementation of near-optimal distributed
// maximum flow, reproducing "Near-Optimal Distributed Maximum Flow"
// (Ghaffari, Karrenbauer, Kuhn, Lenzen, Patt-Shamir; PODC 2015).
//
// The library computes (1+ε)-approximate maximum s-t flows and
// min-congestion routings of arbitrary demand vectors on undirected
// capacitated graphs, using the paper's machinery: a congestion
// approximator sampled from a recursively constructed distribution of
// virtual trees (Räcke/Madry j-trees over low average-stretch spanning
// trees), driven by Sherman's gradient descent. Alongside the solver,
// the package reports the CONGEST-model round cost of every phase, as
// measured/accounted by the underlying simulator (see DESIGN.md).
//
// Quick start:
//
//	g := distflow.NewGraph(4)
//	g.AddEdge(0, 1, 5)
//	g.AddEdge(1, 2, 3)
//	g.AddEdge(2, 3, 7)
//	res, err := distflow.MaxFlow(g, 0, 3, distflow.Options{Epsilon: 0.1})
//	// res.Value ≈ 3, res.Flow holds a feasible flow.
package distflow

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"distflow/internal/capprox"
	"distflow/internal/congest"
	"distflow/internal/graph"
	"distflow/internal/par"
	"distflow/internal/seqflow"
	"distflow/internal/sherman"
)

// SetParallelism sets the number of workers the solver core uses for
// its parallel operators and batch queries, returning the previous
// value. n <= 0 resets to runtime.GOMAXPROCS(0), the default. Solver
// results never depend on this value — the parallel reductions combine
// partials in an order fixed by the problem size alone (see DESIGN.md
// §4) — so it only trades latency for CPU.
func SetParallelism(n int) int { return par.SetWorkers(n) }

// Graph is an undirected capacitated multigraph under construction.
// Vertices are 0..n-1; parallel edges are allowed; capacities are
// positive integers (the paper's poly(n)-bounded regime).
type Graph struct {
	g *graph.Graph
}

// NewGraph returns an empty graph on n vertices.
func NewGraph(n int) *Graph { return &Graph{g: graph.New(n)} }

// AddEdge adds an undirected edge u—v with the given capacity and
// returns its edge index. Flow values reported for this edge are signed
// positive in the u→v direction.
func (G *Graph) AddEdge(u, v int, capacity int64) int {
	return G.g.AddEdge(u, v, capacity)
}

// N returns the number of vertices.
func (G *Graph) N() int { return G.g.N() }

// M returns the number of edges.
func (G *Graph) M() int { return G.g.M() }

// EdgeEndpoints returns the endpoints and capacity of edge e (capacity
// 0 for an edge deleted by Router.UpdateTopology).
func (G *Graph) EdgeEndpoints(e int) (u, v int, capacity int64) {
	ed := G.g.Edge(e)
	return ed.U, ed.V, ed.Cap
}

// ActiveN returns the number of live vertices (N minus the vertices
// removed by Router.UpdateTopology).
func (G *Graph) ActiveN() int { return G.g.ActiveN() }

// LiveM returns the number of live edges (M minus the edges deleted by
// Router.UpdateTopology).
func (G *Graph) LiveM() int { return G.g.LiveM() }

// Removed reports whether vertex v was removed by Router.UpdateTopology.
func (G *Graph) Removed(v int) bool { return G.g.Removed(v) }

// DeadEdge reports whether edge e was deleted by Router.UpdateTopology.
func (G *Graph) DeadEdge(e int) bool { return G.g.Dead(e) }

// Options configures the solver. The zero value uses the paper's
// defaults: ε = 0.5, ⌈log₂ n⌉+1 sampled virtual trees, measured-α
// gradient steps with adaptive fallback, the accelerated stepper, and
// (below ε = 0.2) the fixed ε-continuation schedule (DESIGN.md §5).
type Options struct {
	// Epsilon is the approximation target in (0,1); default 0.5.
	Epsilon float64
	// Seed makes runs reproducible; default 1.
	Seed int64
	// Trees overrides the number of sampled virtual trees (0 = log n).
	Trees int
	// PaperScaling uses the virtual tree capacities for the congestion
	// approximator rows, exactly as the distributed algorithm does
	// (default false = exact cut capacities, which are also computable
	// distributedly and give tighter rows; see DESIGN.md ablations).
	PaperScaling bool
	// Alpha overrides the approximator quality parameter α (0 = use the
	// measured distortion with adaptive restarts).
	Alpha float64
	// MaxIters bounds gradient iterations per fixed-α descent; each
	// ε-continuation level and adaptive-α restart of a query gets a
	// fresh budget (0 = the paper's O(α²ε⁻³ log n) with engineering
	// constants).
	MaxIters int
	// DisableAcceleration restores the plain backtracking gradient step
	// instead of the default safeguarded accelerated stepper
	// (DESIGN.md §5).
	DisableAcceleration bool
	// DisableWarmStart turns off the Router's query warm-start cache.
	// With the cache on (the default), repeated and similar queries
	// start near-converged and finish in a fraction of the iterations;
	// their results satisfy the same (1+ε) guarantee but are generally
	// not bit-identical to cold-started runs (DESIGN.md §5). Disable it
	// when results must be a pure function of the query alone.
	DisableWarmStart bool
	// WarmCacheSize caps the warm-start cache entries (0 = 64). Each
	// entry stores one flow vector of length M.
	WarmCacheSize int
	// AlphaRebuildFactor bounds the distortion degradation
	// UpdateCapacities tolerates before falling back to a full
	// congestion-approximator rebuild: an update that leaves the
	// measured α above AlphaRebuildFactor × the α of the last full
	// build triggers the rebuild (0 = 8). Values < 1 rebuild on every
	// update.
	AlphaRebuildFactor float64
	// UpdateDirtyFraction tunes UpdateCapacities' per-tree dirty-path
	// refresh: a sampled tree whose summed edit-path length exceeds
	// this fraction of n+m falls back to the full TreeFlow re-sweep
	// (0 = 0.25; negative disables the dirty path entirely — every
	// update re-sweeps every tree, the bit-identical slow path used as
	// the property-test oracle and the bench baseline).
	UpdateDirtyFraction float64
	// CutShiftResample tunes UpdateTopology's structural-degradation
	// detector: a sampled tree one of whose pre-existing cuts a
	// topology batch multiplies or divides by more than this factor is
	// individually resampled — its topology was drawn for a cut
	// landscape that no longer exists, a staleness the measured α
	// cannot see (DESIGN.md §8). 0 = 3; negative disables the detector
	// (trees then resample only on α degradation; the query-path
	// quality escalation still catches under-serving).
	CutShiftResample float64
	// Shards distributes the per-iteration solver operators across this
	// many shard goroutines exchanging typed messages under a
	// synchronous round barrier (internal/shard, DESIGN.md §13), and
	// reports measured rounds/messages/bytes on results and ledgers.
	// Flow values and vectors are bit-identical to the
	// single-address-space path at every shard and worker count; what
	// changes is the execution substrate and the measured-complexity
	// telemetry. 0 (the default) disables sharding; the valid range is
	// [0, 64]. Routers with Shards > 0 hold goroutines until Close.
	Shards int
	// RollingRefreshK enables rolling tree refresh under sustained
	// churn: every K-th effective UpdateTopology batch additionally
	// resamples one tree, round-robin over the tree indices, so after
	// trees×K batches every sample has been refreshed even when none
	// individually tripped the degradation detectors. The refresh seeds
	// come from a stream disjoint from the degradation-resample stream,
	// both pure functions of (Options.Seed, batch sequence), so replay
	// determinism is preserved. 0 (the default) disables the refresh —
	// existing churn baselines are unaffected unless opted in.
	RollingRefreshK int
}

// Result is the outcome of a max-flow computation.
type Result struct {
	// Value is the flow value; Value ≥ maxflow/(1+ε) up to lower-order
	// terms, and never exceeds the exact maximum.
	Value float64
	// Flow is the per-edge signed flow realizing Value (capacity
	// feasible, exactly conserving).
	Flow []float64
	// Alpha is the measured congestion-approximator distortion.
	Alpha float64
	// AlphaUsed is the α the gradient descent settled on (≥ the starting
	// value when adaptive stall-restarts fired).
	AlphaUsed float64
	// Iterations counts gradient steps across the computation.
	Iterations int
	// Restarts counts potential-monotonicity restarts of the accelerated
	// stepper's momentum sequence (DESIGN.md §5).
	Restarts int
	// Escalations counts quality escalations: re-solves at a boosted α
	// after the measured residual certificate caught the congestion
	// approximator under-serving this query (DESIGN.md §8; 0 on
	// healthy queries).
	Escalations int
	// WarmStarted reports whether this query started from a warm-cache
	// hit rather than the zero flow.
	WarmStarted bool
	// Degraded reports a best-effort answer: the query's context hit its
	// deadline before the solve met its residual certificate, so Flow is
	// the current iterate — still capacity-feasible and exactly
	// conserving, but with the (1+ε) guarantee replaced by the measured
	// CertBound. Degraded results are timing-dependent: they are never
	// written to the warm cache, and two identical degraded queries need
	// not return identical flows.
	Degraded bool
	// CertBound is the measured quality certificate: Value ≥
	// OPT/CertBound, from the approximator's cut lower bound ‖Rb‖∞ ≤
	// congestion of any routing (a true cut bound under the default
	// exact-cut scaling; an estimate under Options.PaperScaling).
	// Healthy queries sit near 1+ε; degraded answers report however far
	// the iterate got.
	CertBound float64
	// Rounds is the total charged CONGEST rounds (approximator
	// construction plus flow computation).
	Rounds int64
	// RoundsByPhase breaks Rounds down by algorithm phase.
	RoundsByPhase map[string]int64
	// MeasuredRounds is the subset of Rounds executed as actual engine
	// supersteps rather than charged analytically — 0 unless
	// Options.Shards enabled the sharded engine (DESIGN.md §13).
	MeasuredRounds int64
	// Messages and Bytes are the measured cross-shard message and
	// payload-byte totals of the computation — 0 unless Options.Shards
	// enabled the sharded engine, which counts every nonempty
	// inter-shard payload it ships (DESIGN.md §13).
	Messages int64
	Bytes    int64
}

// MaxFlow computes a (1+ε)-approximate maximum s-t flow. The graph must
// be connected.
func MaxFlow(G *Graph, s, t int, opts Options) (*Result, error) {
	r, err := NewRouter(G, opts)
	if err != nil {
		return nil, err
	}
	// One-shot router: release the epoch (and, with Options.Shards, the
	// engine goroutines) once the query finishes.
	defer r.Close()
	return r.MaxFlow(s, t)
}

// ExactMaxFlow computes the exact maximum flow value and an optimal
// integral flow with the sequential Dinic solver (the ground-truth
// reference; not a distributed algorithm).
func ExactMaxFlow(G *Graph, s, t int) (value int64, flow []int64) {
	res := seqflow.MaxFlow(G.g, s, t)
	return res.Value, res.Flow
}

// Router holds a congestion approximator built once for a graph and
// reusable across many flow and routing queries.
//
// Concurrency contract: a Router is safe for fully concurrent use.
// Queries (MaxFlow, RouteDemand, the batch methods, and the read-only
// accessors) may run from any number of goroutines, concurrently with
// each other AND with the mutating operations UpdateCapacities and
// UpdateTopology. Internally the router is MVCC: each query pins the
// immutable published epoch — graph, approximator, solver, and an
// epoch-scoped warm cache — while an update applies its batch to a
// private copy and atomically publishes the result (DESIGN.md §9).
// A query therefore sees either the whole update or none of it, never
// a partial state; queries already in flight when an update publishes
// complete against their original snapshot. Updates serialize against
// each other on an internal mutex. The one thing left to the caller is
// the Graph wrapper passed to NewRouter: it tracks the latest epoch
// and must not be read concurrently with an update.
//
// Unless Options.DisableWarmStart is set, each epoch keeps an LRU
// cache of recent query results and warm-starts repeated queries from
// them (see Options.DisableWarmStart for the determinism trade-off);
// every effective update starts the new epoch with an empty cache, so
// a cached flow never warm-starts a query against different state.
type Router struct {
	// cur is the published epoch; queries pin it via acquire/release
	// (epoch.go). Never nil after NewRouter.
	cur atomic.Pointer[epoch]
	// mu serializes the update paths (fork → apply → publish).
	mu sync.Mutex
	// userG is the caller's Graph wrapper, re-pointed at each publish so
	// it keeps observing the latest epoch's graph.
	userG *Graph
	opts  Options
	// buildAlpha is the measured distortion of the last full build —
	// the reference the UpdateCapacities/UpdateTopology rebuild
	// fallbacks compare against. Guarded by mu.
	buildAlpha float64
	// topoSeq counts published UpdateTopology batches; the per-tree
	// resample seeds are a pure function of (Options.Seed, topoSeq), so
	// replaying the same batch history reproduces the same trees.
	// Guarded by mu; a discarded (failed) batch does not advance it.
	topoSeq int64
	// epochsRetired counts epochs replaced by a publish; epochsFreed
	// counts retired epochs whose last query drained. retired − freed is
	// the number of old snapshots still pinned by in-flight queries.
	epochsRetired atomic.Int64
	epochsFreed   atomic.Int64
}

// NewRouter samples the congestion approximator for G (the expensive,
// query-independent part of the algorithm: Theorem 8.10).
func NewRouter(G *Graph, opts Options) (*Router, error) {
	return NewRouterCtx(context.Background(), G, opts)
}

// NewRouterCtx is NewRouter under a context: a done context (cancelled
// or past its deadline) aborts the approximator build with the
// context's error at tree-level granularity. An aborted construction
// publishes nothing.
func NewRouterCtx(ctx context.Context, G *Graph, opts Options) (*Router, error) {
	if _, err := sherman.NormalizeEps(opts.Epsilon); err != nil {
		return nil, fmt.Errorf("distflow: Options.Epsilon: %w", err)
	}
	if opts.Shards < 0 || opts.Shards > 64 {
		return nil, fmt.Errorf("distflow: Options.Shards must be in [0, 64], got %d", opts.Shards)
	}
	if !G.g.Connected() {
		return nil, fmt.Errorf("distflow: graph must be connected")
	}
	apx, err := capprox.BuildCtx(ctx, G.g, capproxConfig(opts), rand.New(rand.NewSource(normalizeSeed(opts.Seed))))
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, fmt.Errorf("distflow: %w", err)
	}
	r := &Router{userG: G, opts: opts, buildAlpha: apx.Alpha}
	r.bootstrap(G.g, apx, opts)
	return r, nil
}

// Alpha returns the measured per-tree cut distortion of the sampled
// congestion approximator (of the currently published epoch).
func (r *Router) Alpha() float64 { return r.curEpoch().apx.Alpha }

// Trees returns the number of sampled virtual trees in the router's
// congestion approximator.
func (r *Router) Trees() int { return len(r.curEpoch().apx.Trees) }

// BuildBreakdown reports the cost of each congestion-approximator
// construction phase of NewRouter (or of the rebuild fallback of
// UpdateCapacities). Tree-parallel phases (sampling, sparsifier, cut
// capacities) are summed per-tree durations (CPU seconds — above wall
// clock on multicore); AlphaSeconds and TotalSeconds are wall clock.
type BuildBreakdown struct {
	// SampleSeconds is the tree-sampling time across all j-tree levels
	// (includes SparsifySeconds).
	SampleSeconds float64 `json:"sample_seconds"`
	// SparsifySeconds is the cluster-sparsification share of sampling.
	SparsifySeconds float64 `json:"sparsify_seconds"`
	// RaceSeconds is the SplitGraph-race share of sampling.
	RaceSeconds float64 `json:"race_seconds"`
	// CutCapSeconds is the exact subtree-cut capacity phase (one
	// TreeFlow sweep per tree).
	CutCapSeconds float64 `json:"cutcap_seconds"`
	// AlphaSeconds is the distortion measurement phase (sequential).
	AlphaSeconds float64 `json:"alpha_seconds"`
	// TotalSeconds is the wall clock of the whole build.
	TotalSeconds float64 `json:"total_seconds"`
}

// BuildBreakdown returns the per-phase timing of the router's
// congestion-approximator build.
func (r *Router) BuildBreakdown() BuildBreakdown {
	s := r.curEpoch().apx.Stats
	return BuildBreakdown{
		SampleSeconds:   s.SampleSeconds,
		SparsifySeconds: s.SparsifySeconds,
		RaceSeconds:     s.RaceSeconds,
		CutCapSeconds:   s.CutCapSeconds,
		AlphaSeconds:    s.AlphaSeconds,
		TotalSeconds:    s.TotalSeconds,
	}
}

// ConstructionRounds returns the CONGEST rounds charged to build the
// congestion approximator.
func (r *Router) ConstructionRounds() int64 { return r.curEpoch().apx.Ledger.Total() }

// capproxConfig maps solver options to the approximator configuration
// (one definition shared by NewRouter and the UpdateCapacities rebuild
// fallback).
func capproxConfig(opts Options) capprox.Config {
	return capprox.Config{
		Trees:               opts.Trees,
		ExactCuts:           !opts.PaperScaling,
		UpdateDirtyFraction: opts.UpdateDirtyFraction,
		CutShiftResample:    opts.CutShiftResample,
	}
}

// CapEdit is one capacity edit applied by UpdateCapacities.
//
// Batches are coalesced before anything is applied: when a batch names
// the same edge more than once the last edit wins (earlier edits to
// that edge are never observable), and edits equal to the edge's
// current capacity are dropped as no-ops. A batch that is empty after
// coalescing — including a nil or empty slice — leaves the router
// completely untouched: no tree re-sweep, no solver rebuild, and the
// warm-start cache survives.
type CapEdit struct {
	// Edge is the edge index returned by AddEdge.
	Edge int
	// Cap is the new capacity. It must be positive: model a failed
	// link with a small positive capacity so the graph stays connected
	// (the solver's standing requirement).
	Cap int64
}

// UpdateResult reports what an UpdateCapacities call did.
type UpdateResult struct {
	// Rebuilt is true when the α-degradation fallback discarded the
	// incremental refresh and re-sampled the approximator from scratch.
	Rebuilt bool
	// Alpha is the measured congestion-approximator distortion after
	// the update (or rebuild).
	Alpha float64
	// Edits is the effective edit count after coalescing (0 for a
	// no-op batch, which leaves the router untouched).
	Edits int
	// DirtyTrees and SweptTrees count the sampled trees the incremental
	// refresh patched along dirty paths vs re-swept in full (both 0 for
	// a no-op batch; on Rebuilt they describe the discarded incremental
	// attempt).
	DirtyTrees, SweptTrees int
	// ResampledTrees counts the trees UpdateTopology individually
	// resampled because the batch degraded them past
	// Options.AlphaRebuildFactor (always 0 for UpdateCapacities, whose
	// fallback is the full rebuild).
	ResampledTrees int
	// RefreshedTrees counts the trees this batch resampled under the
	// Options.RollingRefreshK round-robin refresh (0 or 1 per batch;
	// always 0 when the option is off or the batch rebuilt in full).
	RefreshedTrees int
	// AddedVertices and AddedEdges report the ids UpdateTopology
	// assigned, in batch order (vertex link edges follow their vertex).
	AddedVertices, AddedEdges []int
}

// UpdateCapacities applies capacity edits to the router's graph (in
// place — the Graph passed to NewRouter observes them) and refreshes
// the congestion approximator incrementally instead of rebuilding it.
// The batch is first coalesced (last edit per edge wins, edits equal to
// the current capacity dropped — see CapEdit); a batch that coalesces
// to nothing returns immediately without touching the router, so no-op
// churn costs nothing and the warm cache survives it. Otherwise the
// sampled tree topologies are kept and each tree is refreshed along the
// dirty paths only: a capacity edit on edge (u,v) changes exactly the
// subtree cuts on the tree path u→LCA(u,v)→v (Lemma 8.3), so cut and
// virtual capacities are patched along those paths in O(edits × depth),
// falling back to the full per-tree TreeFlow re-sweep past
// Options.UpdateDirtyFraction; the distortion α is re-measured from
// maintained per-tree maxima. When the refreshed α exceeds
// Options.AlphaRebuildFactor × the α of the last full build, the
// incremental result is judged too distorted and a full deterministic
// rebuild (same seed) runs instead; UpdateResult.Rebuilt reports which
// path was taken.
//
// On any effective (non-no-op) update a new epoch is published with a
// fresh solver and an empty warm-start cache, so subsequent queries are
// a pure function of the updated router state — the same answers a
// freshly built router of the same α would give up to the (1+ε)
// guarantee, at a fraction of the cost for small edit batches.
//
// UpdateCapacities may run concurrently with queries (they complete
// against the epoch they started on) and is atomic: on any error —
// including a rebuild failure past the point edits were applied — the
// private epoch is discarded and the router keeps serving the
// pre-update state unchanged.
func (r *Router) UpdateCapacities(edits []CapEdit) (*UpdateResult, error) {
	return r.UpdateCapacitiesCtx(context.Background(), edits)
}

// UpdateCapacitiesCtx is UpdateCapacities under a context. A done
// context — cancelled or past its deadline; updates do not degrade —
// aborts the update with the context's error and the same atomicity as
// any other failure: the private epoch fork is discarded whole and the
// router keeps serving the pre-update state bit-identically, so
// retrying the same batch with a fresh context is always safe.
func (r *Router) UpdateCapacitiesCtx(ctx context.Context, edits []CapEdit) (*UpdateResult, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cur := r.curEpoch()
	for _, ed := range edits {
		if ed.Edge < 0 || ed.Edge >= cur.g.M() {
			return nil, fmt.Errorf("distflow: capacity edit names edge %d (m=%d)", ed.Edge, cur.g.M())
		}
		if ed.Cap <= 0 {
			return nil, fmt.Errorf("distflow: capacity edit for edge %d has non-positive capacity %d", ed.Edge, ed.Cap)
		}
		if cur.g.Dead(ed.Edge) {
			return nil, fmt.Errorf("distflow: capacity edit names deleted edge %d (topology edits cannot be undone by SetCap)", ed.Edge)
		}
	}
	// Coalesce: last write per edge wins, then no-ops (edits equal to
	// the edge's current capacity) drop out.
	final := make(map[int]int64, len(edits))
	for _, ed := range edits {
		final[ed.Edge] = ed.Cap
	}
	effective := make([]int, 0, len(final))
	for e, c := range final {
		if cur.g.Cap(e) != c {
			effective = append(effective, e)
		}
	}
	if len(effective) == 0 {
		// Nothing changes: the published epoch — solver state, warm
		// cache and all — survives untouched.
		return &UpdateResult{Alpha: cur.apx.Alpha}, nil
	}
	// Apply in ascending edge order (map iteration is randomized; the
	// refresh must be a pure function of the router state and batch) —
	// on the private fork, never on the published epoch.
	next := r.fork()
	sort.Ints(effective)
	deltas := make([]capprox.CapDelta, len(effective))
	for i, e := range effective {
		ed := next.g.Edge(e)
		deltas[i] = capprox.CapDelta{U: ed.U, V: ed.V, Diff: float64(final[e]) - float64(ed.Cap)}
		next.g.SetCap(e, final[e])
	}
	dirty, swept := next.apx.UpdateCapacities(next.g, capproxConfig(r.opts), deltas)
	out := &UpdateResult{Alpha: next.apx.Alpha, Edits: len(effective), DirtyTrees: dirty, SweptTrees: swept}
	factor := r.opts.AlphaRebuildFactor
	if factor == 0 {
		factor = 8
	}
	rebuilt := false
	if next.apx.Alpha > factor*r.buildAlpha {
		apx, err := capprox.BuildCtx(ctx, next.g, capproxConfig(r.opts), rand.New(rand.NewSource(r.seed())))
		if err != nil {
			// Atomic failure: drop the fork; the published epoch never
			// saw the edits.
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			return nil, fmt.Errorf("distflow: rebuild after capacity update: %w", err)
		}
		next.apx = apx
		rebuilt = true
		out.Rebuilt = true
		out.Alpha = apx.Alpha
	}
	if err := ctx.Err(); err != nil {
		// Final pre-publish check: a caller that abandoned the update
		// must never have it appear later. Dropping the fork here — with
		// every writer-side field untouched — is exactly the
		// failed-rebuild path, so replaying the batch is safe.
		return nil, err
	}
	if rebuilt {
		r.buildAlpha = next.apx.Alpha
	}
	r.publish(next)
	return out, nil
}

func (ep *epoch) shermanConfig() sherman.Config {
	return sherman.Config{
		Epsilon:             ep.opts.Epsilon,
		Alpha:               ep.opts.Alpha,
		MaxIters:            ep.opts.MaxIters,
		DisableAcceleration: ep.opts.DisableAcceleration,
	}
}

// MaxFlow computes a (1+ε)-approximate maximum s-t flow using the
// router's approximator, warm-starting from the cache when the same
// pair was queried recently.
func (r *Router) MaxFlow(s, t int) (*Result, error) {
	return r.MaxFlowCtx(context.Background(), s, t)
}

// MaxFlowCtx is MaxFlow under a context. Cancelling the context aborts
// the query with the context's error within one descent-iteration
// granule; the router state is untouched (queries never mutate it). A
// deadline expiry instead degrades gracefully: the solve stops where it
// is and returns its current iterate as a feasible, exactly conserving
// best-effort flow flagged Result.Degraded, carrying the measured
// Result.CertBound. Degraded answers are never written to the warm
// cache, so they cannot perturb later queries.
//
// Retryability: an error with errors.Is(err, context.Canceled) or
// context.DeadlineExceeded reflects the caller's context, not router
// state — the same query retried with a fresh context is expected to
// succeed. All other errors are validation errors and will repeat.
func (r *Router) MaxFlowCtx(ctx context.Context, s, t int) (*Result, error) {
	ep := r.acquire()
	defer ep.release()
	var warm []float64
	if ep.cache != nil {
		warm = ep.cache.get(stKey(s, t))
	}
	res, routing, err := ep.maxFlowWarm(ctx, s, t, warm)
	if err != nil {
		return nil, err
	}
	if ep.cache != nil && !res.Degraded {
		ep.cache.put(stKey(s, t), routing)
	}
	return res, nil
}

// maxFlowWarm runs one warm-started max-flow query against this epoch
// without touching the cache. It additionally returns the unnormalized
// routing of the unit s-t demand — the vector a future query of the
// same pair warm-starts from (nil for degraded answers: a
// timing-dependent iterate must never seed future queries).
func (ep *epoch) maxFlowWarm(ctx context.Context, s, t int, warm []float64) (*Result, []float64, error) {
	if s >= 0 && s < ep.g.N() && ep.g.Removed(s) {
		return nil, nil, fmt.Errorf("distflow: source %d was removed", s)
	}
	if t >= 0 && t < ep.g.N() && ep.g.Removed(t) {
		return nil, nil, fmt.Errorf("distflow: sink %d was removed", t)
	}
	fr, err := ep.solver.MaxFlowCtx(ctx, s, t, ep.shermanConfig(), warm)
	if err != nil {
		if ctx.Err() != nil {
			return nil, nil, ctx.Err()
		}
		return nil, nil, fmt.Errorf("distflow: %w", err)
	}
	// Enumerate the ledgers' actual phases rather than whitelisting
	// names: a hardcoded list silently stops summing to Rounds the
	// moment a new phase is charged (as "update-treeflow" once did).
	byPhase := map[string]int64{}
	total := int64(0)
	measured, msgs, bytes := int64(0), int64(0), int64(0)
	for _, led := range []*congest.Ledger{ep.apx.Ledger, fr.Ledger} {
		total += led.Total()
		measured += led.Measured()
		msgs += led.Messages()
		bytes += led.Bytes()
		for _, name := range led.PhaseNames() {
			if v := led.Phase(name); v > 0 {
				byPhase[name] += v
			}
		}
	}
	// The cacheable routing vector is only materialized when there is a
	// cache to hold it (queries with DisableWarmStart skip the pass) and
	// the answer is not degraded (a deadline-shaped iterate must never
	// warm-start a future query).
	var routing []float64
	if ep.cache != nil && !fr.Degraded {
		routing = make([]float64, len(fr.Flow))
		for e, fe := range fr.Flow {
			routing[e] = fe * fr.Congestion
		}
	}
	return &Result{
		Value:          fr.Value,
		Flow:           fr.Flow,
		Alpha:          ep.apx.Alpha,
		AlphaUsed:      fr.AlphaUsed,
		Iterations:     fr.Iterations,
		Restarts:       fr.Restarts,
		Escalations:    fr.Escalations,
		WarmStarted:    warm != nil,
		Degraded:       fr.Degraded,
		CertBound:      fr.CertBound,
		Rounds:         total,
		RoundsByPhase:  byPhase,
		MeasuredRounds: measured,
		Messages:       msgs,
		Bytes:          bytes,
	}, routing, nil
}

// RouteDemand computes a flow approximately routing an arbitrary demand
// vector b (b[v] > 0 injects supply at v; Σb must be 0) with
// near-minimal maximum congestion. The returned flow meets b exactly
// (residuals are routed on a spanning tree); congestion is its maximum
// |f_e|/cap_e.
func (r *Router) RouteDemand(b []float64, eps float64) (flow []float64, congestion float64, err error) {
	return r.RouteDemandCtx(context.Background(), b, eps)
}

// RouteDemandCtx is RouteDemand under a context. Cancellation aborts
// with the context's error within one descent-iteration granule. A
// deadline expiry degrades gracefully: the returned flow still meets b
// exactly (the residual of the current iterate is tree-routed), only
// its congestion is whatever the truncated descent reached — the
// reported congestion is always the measured value of the returned
// flow, so the answer remains honest. Deadline-degraded routings are
// never cached.
func (r *Router) RouteDemandCtx(ctx context.Context, b []float64, eps float64) (flow []float64, congestion float64, err error) {
	eps, err = normalizeEps(eps)
	if err != nil {
		return nil, 0, err
	}
	ep := r.acquire()
	defer ep.release()
	key := ""
	var warm []float64
	if ep.cache != nil {
		key = demandKey(b, eps)
		warm = ep.cache.get(key)
	}
	flow, congestion, degraded, err := ep.routeDemandWarm(ctx, b, eps, warm)
	if err == nil && !degraded && ep.cache != nil {
		ep.cache.put(key, append([]float64(nil), flow...))
	}
	return flow, congestion, err
}

// normalizeEps maps the zero value to the documented default accuracy
// and rejects values outside (0,1) — including NaN — with a clear
// error at the API boundary. Every query path — and the warm-cache key
// derivation — must go through this one definition so cached entries
// always correspond to the accuracy the solve actually uses; it
// delegates to sherman.NormalizeEps, the single definition the solver
// core itself uses, so the default cannot desync between the layers.
func normalizeEps(eps float64) (float64, error) {
	out, err := sherman.NormalizeEps(eps)
	if err != nil {
		return 0, fmt.Errorf("distflow: %w", err)
	}
	return out, nil
}

// routeDemandWarm runs one warm-started demand query against this
// epoch without touching the cache. eps is already normalized. degraded
// reports a deadline-truncated descent (the flow still meets b exactly;
// callers must not cache it).
func (ep *epoch) routeDemandWarm(ctx context.Context, b []float64, eps float64, warm []float64) (flow []float64, congestion float64, degraded bool, err error) {
	if len(b) != ep.g.N() {
		return nil, 0, false, fmt.Errorf("distflow: demand length %d, want %d", len(b), ep.g.N())
	}
	if !graph.IsFeasibleDemand(b, 1e-6) {
		return nil, 0, false, fmt.Errorf("distflow: demand does not sum to zero")
	}
	if ep.g.RemovedN() > 0 {
		for v, bv := range b {
			if bv != 0 && ep.g.Removed(v) {
				return nil, 0, false, fmt.Errorf("distflow: demand %v at removed vertex %d", bv, v)
			}
		}
	}
	cfg := ep.shermanConfig()
	rr, err := ep.solver.AlmostRouteCtx(ctx, b, eps, cfg, nil, warm)
	if err != nil {
		if ctx.Err() != nil {
			return nil, 0, false, ctx.Err()
		}
		return nil, 0, false, fmt.Errorf("distflow: %w", err)
	}
	// Restore exact conservation via spanning-tree routing (Lemma 9.1).
	div := ep.g.Divergence(rr.Flow)
	resid := make([]float64, len(b))
	for v := range resid {
		resid[v] = b[v] - div[v]
	}
	fTree, err := ep.solver.RouteResidualOnST(resid)
	if err != nil {
		return nil, 0, false, fmt.Errorf("distflow: %w", err)
	}
	out := make([]float64, ep.g.M())
	for e := range out {
		out[e] = rr.Flow[e] + fTree[e]
	}
	return out, ep.g.MaxCongestion(out), rr.Degraded, nil
}

// CongestionLowerBound returns ‖Rb‖∞, a certified lower bound on the
// congestion any routing of b must incur (with the default exact-cut
// scaling this is a true cut-based bound).
func (r *Router) CongestionLowerBound(b []float64) float64 {
	ep := r.acquire()
	defer ep.release()
	return ep.apx.NormRb(b)
}

// STPair names one s-t max-flow query of a batch.
type STPair struct {
	S, T int
}

// MaxFlowBatch computes a (1+ε)-approximate maximum flow for every
// pair, running the queries concurrently on the internal worker pool
// while sharing the router's congestion approximator. results[i]
// corresponds to pairs[i] and carries its own isolated round ledger.
// The whole batch runs against one epoch snapshot: an update published
// mid-batch is not observed by any of its queries.
//
// Warm-cache interaction is deterministic: lookups happen before the
// parallel region and insertions after it, both in index order, so for
// a fixed router state the batch results are bit-identical at every
// worker count. (Issuing the same queries one at a time instead mutates
// the cache between queries; disable the cache for strict
// batch-vs-sequential equivalence.)
//
// On error, the first failing query's error (by index order) is
// returned together with the partial results; failed entries are nil.
func (r *Router) MaxFlowBatch(pairs []STPair) ([]*Result, error) {
	return r.MaxFlowBatchCtx(context.Background(), pairs)
}

// MaxFlowBatchCtx is MaxFlowBatch under one context governing the whole
// batch: cancellation aborts every member with the context's error; a
// deadline degrades each member to its best-effort iterate (see
// MaxFlowCtx). For per-member contexts — where one member's abort must
// not disturb the others — see maxFlowBatchCtxs (the serving layer's
// entry point).
func (r *Router) MaxFlowBatchCtx(ctx context.Context, pairs []STPair) ([]*Result, error) {
	ctxs := make([]context.Context, len(pairs))
	for i := range ctxs {
		ctxs[i] = ctx
	}
	results, errs := r.maxFlowBatchCtxs(ctxs, pairs)
	for i, err := range errs {
		if err != nil {
			return results, fmt.Errorf("distflow: batch query %d (%d→%d): %w", i, pairs[i].S, pairs[i].T, err)
		}
	}
	return results, nil
}

// maxFlowBatchCtxs runs one epoch-snapshot batch with an independent
// context per member. A cancelled member fails alone with its context's
// error and cannot perturb the others: each member's solve observes
// only its own context, warm-cache reads all happen before the parallel
// region against the pre-batch cache state, and writes happen after it
// in index order with failed and degraded entries skipped — so the
// surviving members' results are bit-identical to the same batch run
// without the cancellation.
func (r *Router) maxFlowBatchCtxs(ctxs []context.Context, pairs []STPair) ([]*Result, []error) {
	ep := r.acquire()
	defer ep.release()
	results := make([]*Result, len(pairs))
	routings := make([][]float64, len(pairs))
	warms := make([][]float64, len(pairs))
	errs := make([]error, len(pairs))
	if ep.cache != nil {
		for i, p := range pairs {
			warms[i] = ep.cache.get(stKey(p.S, p.T))
		}
	}
	par.Do(len(pairs), func(i int) {
		results[i], routings[i], errs[i] = ep.maxFlowWarm(ctxs[i], pairs[i].S, pairs[i].T, warms[i])
	})
	if ep.cache != nil {
		for i, p := range pairs {
			if errs[i] == nil && !results[i].Degraded {
				ep.cache.put(stKey(p.S, p.T), routings[i])
			}
		}
	}
	return results, errs
}

// Routing is the outcome of one demand-routing query of a batch.
type Routing struct {
	// Flow meets the queried demand exactly (per-edge signed flow).
	Flow []float64
	// Congestion is max_e |Flow_e|/cap_e.
	Congestion float64
}

// RouteDemandBatch routes every demand vector concurrently on the
// internal worker pool, sharing the router's congestion approximator.
// results[i] corresponds to demands[i]. Warm-cache reads and writes
// bracket the parallel region in index order exactly as in
// MaxFlowBatch, so batch results are bit-identical at every worker
// count for a fixed router state. On error the first failing query's
// error is returned with the partial results.
func (r *Router) RouteDemandBatch(demands [][]float64, eps float64) ([]*Routing, error) {
	eps, err := normalizeEps(eps)
	if err != nil {
		return nil, err
	}
	ep := r.acquire()
	defer ep.release()
	results := make([]*Routing, len(demands))
	warms := make([][]float64, len(demands))
	keys := make([]string, len(demands))
	errs := make([]error, len(demands))
	if ep.cache != nil {
		for i, b := range demands {
			keys[i] = demandKey(b, eps)
			warms[i] = ep.cache.get(keys[i])
		}
	}
	par.Do(len(demands), func(i int) {
		flow, cong, _, err := ep.routeDemandWarm(context.Background(), demands[i], eps, warms[i])
		if err != nil {
			errs[i] = err
			return
		}
		results[i] = &Routing{Flow: flow, Congestion: cong}
	})
	if ep.cache != nil {
		for i := range demands {
			if errs[i] == nil {
				ep.cache.put(keys[i], append([]float64(nil), results[i].Flow...))
			}
		}
	}
	for i, err := range errs {
		if err != nil {
			return results, fmt.Errorf("distflow: batch demand %d: %w", i, err)
		}
	}
	return results, nil
}
