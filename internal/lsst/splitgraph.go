// Package lsst constructs low average-stretch spanning trees on
// multigraphs — Theorem 3.1 of the paper — using the algorithm of Alon,
// Karp, Peleg and West driven by the low-diameter decomposition
// SplitGraph/Partition of Blelloch et al. (Figures 4 and §7).
//
// The construction here follows the randomized process of the
// distributed algorithm exactly (delayed multi-source BFS races, edge
// classes, restart checks), so its output distribution — and therefore
// the stretch guarantee — matches; the distributed round cost is
// charged via the paper's own accounting (O(ρ·log²N·(D+√N)) per
// Partition call, §7) with the measured ρ, iteration and restart
// counts. See DESIGN.md §1 for the measured/accounted split.
package lsst

import (
	"math/rand"

	"distflow/internal/csr"
)

// RaceOrderVersion versions the pop order of the SplitGraph race among
// equal (time, source) keys — the one degree of freedom Fig. 4 leaves
// unspecified. Outputs are a deterministic function of (input, seed,
// version); bumping the version is a distribution change that moves
// every downstream build fingerprint and requires re-committing the
// BENCH baselines (DESIGN.md §10).
//
// Version 1: container/heap sift order, kept only as the test-side
// reference race (raceWithHeap in the package tests). Version 2: the
// bucket queue's order — within one arrival time, ascending source;
// within one (time, source), insertion order (a seed before any
// same-source expansion, expansions in the pop order of the previous
// bucket).
const RaceOrderVersion = 2

// splitEdge is an edge of the (contracted, unweighted) working graph.
// Ids are compacted to int32 — working graphs are bounded by the input
// edge count, far below 2³¹ — so the race-phase arc array at n=10⁶
// stays cache- and memory-lean.
type splitEdge struct {
	u, v int32
	id   int32 // index into the caller's edge array
}

// splitResult is one SplitGraph clustering. The arrays live in the
// caller's workspace and are overwritten by the next splitGraph call.
type splitResult struct {
	cluster    []int32 // cluster id per node (source-node index)
	parent     []int32 // BFS-tree parent per node (-1 at cluster centers)
	parentEdge []int32 // edge id used to reach parent (-1 at centers)
	depth      []int32
	maxDepth   int
}

// raceItem is a pending BFS arrival in the delayed multi-source race.
// The priority (time, source) is packed into one uint64 key —
// time<<32 | source, both nonnegative and far below 2³¹/2³² — so the
// lexicographic comparison is a single integer compare; the payload is
// packed to int32.
type raceItem struct {
	key    uint64 // time<<32 | source
	node   int32
	parent int32 // -1 at seeds
	edge   int32 // -1 at seeds
}

func raceKey(time, source int) uint64 {
	return uint64(time)<<32 | uint64(uint32(source))
}

func (it raceItem) time() int   { return int(it.key >> 32) }
func (it raceItem) source() int { return int(uint32(it.key)) }

// splitWS holds splitGraph's scratch, reused across Partition calls,
// SpanningTree iterations, levels and trees (the build-path arena).
type splitWS struct {
	budget    []int32 // per seeding node: delay + remaining radius
	seeds     []int32
	uncovered []int32
	res       splitResult
	// Bucket/dial queue of the RaceOrderVersion-2 race. Arrival times
	// are small integers bounded by the phase radius, and a pop at time
	// t only ever pushes at t+1, so two expansion buckets (drain/fill)
	// plus the delay-bucketed seeds replace the heap: O(1) push and pop,
	// no sifting. Sizing derives from the measured radius, not a tuned
	// constant.
	seedBuf   []raceItem
	seedOff   []int32
	seedItems []raceItem
	cur, next []raceItem
}

// grow readies the workspace for an n-node working graph.
func (ws *splitWS) grow(n int) {
	if cap(ws.budget) < n {
		ws.budget = make([]int32, n)
		ws.res.cluster = make([]int32, n)
		ws.res.parent = make([]int32, n)
		ws.res.parentEdge = make([]int32, n)
		ws.res.depth = make([]int32, n)
	}
	ws.budget = ws.budget[:n]
	ws.res.cluster = ws.res.cluster[:n]
	ws.res.parent = ws.res.parent[:n]
	ws.res.parentEdge = ws.res.parentEdge[:n]
	ws.res.depth = ws.res.depth[:n]
}

// splitGraph runs Algorithm SplitGraph (Fig. 4) on an n-node unweighted
// multigraph with target radius rho; adjacency is given in CSR form
// (arcs[off[v]:off[v+1]] are v's incidences, each naming the neighbour
// via its endpoints). The BFS races are resolved exactly as in the
// distributed execution: a node joins the cluster of the first BFS to
// visit it, ties broken by smaller source ID; the residual tie order is
// the pop order of race, which is raceWithBuckets (RaceOrderVersion)
// everywhere but the tests that compare it against the version-1 heap.
// The returned result aliases ws and is valid until the next call with
// the same ws.
func splitGraph(n int, off []int32, arcs []splitEdge, rho int, rng *rand.Rand, ws *splitWS, race raceFunc) *splitResult {
	ws.grow(n)
	res := &ws.res
	res.maxDepth = 0
	for i := 0; i < n; i++ {
		res.cluster[i] = -1
		res.parent[i] = -1
		res.parentEdge[i] = -1
		res.depth[i] = 0
	}
	// When the target radius reaches the graph size, every seed's ball
	// covers its whole connected component, so the race degenerates to
	// component clustering; shortcut to it. This also guarantees that
	// the caller's radius-doubling fallback terminates on tiny working
	// graphs, where the asymptotic seed fractions are ≥ 1 and the
	// delayed race would otherwise produce all-singleton clusterings.
	if rho >= n {
		componentClusters(n, off, arcs, res)
		return res
	}
	logN := 1
	for (1 << logN) < n {
		logN++
	}
	maxDelay := rho / (2 * logN)

	uncovered := ws.uncovered[:0]
	for i := 0; i < n; i++ {
		uncovered = append(uncovered, int32(i))
	}
	budget := ws.budget
	for t := 1; t <= 2*logN && len(uncovered) > 0; t++ {
		// Seed fraction 12·2^{t/2}/n of the uncovered nodes (Fig. 4 2a).
		frac := 12.0 * pow2half(t) / float64(n)
		seeds := ws.seeds[:0]
		if frac >= 1 {
			seeds = append(seeds, uncovered...)
		} else {
			for _, v := range uncovered {
				if rng.Float64() < frac {
					seeds = append(seeds, v)
				}
			}
		}
		if len(seeds) == 0 && t == 2*logN {
			seeds = append(seeds, uncovered...)
		}
		radius := rho * (2*logN - (t - 1)) / (2 * logN)
		// Draw the seed delays in seed order (one shared PRNG stream for
		// every race order) and encode each race deadline by entering
		// the seed at its delay; expansion stops when time-delay exceeds
		// the remaining radius (tracked below via the per-source budget).
		seedBuf := ws.seedBuf[:0]
		maxTime := 0
		for _, s := range seeds {
			delay := 0
			if maxDelay > 0 {
				delay = rng.Intn(maxDelay + 1)
			}
			r := radius - delay
			if r < 0 {
				r = 0
			}
			seedBuf = append(seedBuf, raceItem{key: raceKey(delay, int(s)), node: s, parent: -1, edge: -1})
			budget[s] = int32(delay + r)
			if int(budget[s]) > maxTime {
				maxTime = int(budget[s])
			}
		}
		ws.seedBuf = seedBuf
		ws.seeds = seeds
		race(seedBuf, maxTime, off, arcs, budget, res, ws)
		next := uncovered[:0]
		for _, v := range uncovered {
			if res.cluster[v] < 0 {
				next = append(next, v)
			}
		}
		uncovered = next
	}
	// Any node still uncovered (radius-0 stragglers) becomes a singleton.
	for _, v := range uncovered {
		res.cluster[v] = v
	}
	ws.uncovered = uncovered[:0]
	return res
}

// claim processes one race arrival: the first arrival at an unclaimed
// node claims it and reports whether the BFS may expand from it.
func claim(it raceItem, budget []int32, res *splitResult) (v int, expand bool) {
	v = int(it.node)
	if res.cluster[v] >= 0 {
		return v, false
	}
	res.cluster[v] = int32(it.source())
	res.parent[v] = it.parent
	res.parentEdge[v] = it.edge
	if it.parent >= 0 {
		res.depth[v] = res.depth[it.parent] + 1
		if int(res.depth[v]) > res.maxDepth {
			res.maxDepth = int(res.depth[v])
		}
	}
	return v, it.time()+1 <= int(budget[it.source()])
}

// raceFunc runs one phase's delayed BFS race: seedBuf holds the phase's
// seeds in ascending-source order, keyed at their delays, and no
// arrival is later than maxTime.
type raceFunc func(seedBuf []raceItem, maxTime int, off []int32, arcs []splitEdge, budget []int32, res *splitResult, ws *splitWS)

// raceWithBuckets runs one phase's delayed BFS race through the dial
// queue. Invariant: every bucket is drained in ascending-source order —
// the seeds of one delay arrive pre-sorted (seed scan order is
// ascending), and expansions inherit the order of the pops that pushed
// them — so a two-run merge reproduces the exact (time, source)
// lexicographic priority with O(1) queue operations. A seed and a
// same-source expansion can never share a bucket (a source expands only
// after its own delay has passed), so the merge needs no tie rule
// across the two runs.
func raceWithBuckets(seedBuf []raceItem, maxTime int, off []int32, arcs []splitEdge, budget []int32, res *splitResult, ws *splitWS) {
	// Bucket the seeds by delay: one counting sort, stable, so each
	// bucket keeps the ascending-source scan order.
	if cap(ws.seedOff) < maxTime+2 {
		ws.seedOff = make([]int32, maxTime+2)
	}
	seedOff := ws.seedOff[:maxTime+2]
	for i := range seedOff {
		seedOff[i] = 0
	}
	for _, it := range seedBuf {
		seedOff[it.time()]++
	}
	csr.Offsets(seedOff)
	if cap(ws.seedItems) < len(seedBuf) {
		ws.seedItems = make([]raceItem, len(seedBuf))
	}
	seedItems := ws.seedItems[:len(seedBuf)]
	for _, it := range seedBuf {
		seedItems[seedOff[it.time()]] = it
		seedOff[it.time()]++
	}
	csr.Shift(seedOff)

	cur := ws.cur[:0]
	next := ws.next[:0]
	for time := 0; time <= maxTime; time++ {
		sb := seedItems[seedOff[time]:seedOff[time+1]]
		i, j := 0, 0
		for i < len(sb) || j < len(cur) {
			var it raceItem
			if j >= len(cur) || (i < len(sb) && uint32(sb[i].key) < uint32(cur[j].key)) {
				it = sb[i]
				i++
			} else {
				it = cur[j]
				j++
			}
			v, expand := claim(it, budget, res)
			if !expand {
				continue
			}
			nextKey := it.key + 1<<32 // same source, time+1
			for _, e := range arcs[off[v]:off[v+1]] {
				w := other(e, v)
				if res.cluster[w] < 0 {
					next = append(next, raceItem{key: nextKey, node: int32(w), parent: int32(v), edge: e.id})
				}
			}
		}
		cur, next = next, cur[:0]
	}
	ws.cur, ws.next = cur[:0], next[:0]
}

// componentClusters assigns one cluster per connected component, with a
// BFS tree rooted at the smallest-index node of each component.
func componentClusters(n int, off []int32, arcs []splitEdge, res *splitResult) {
	for s := 0; s < n; s++ {
		if res.cluster[s] >= 0 {
			continue
		}
		res.cluster[s] = int32(s)
		queue := []int32{int32(s)}
		for len(queue) > 0 {
			v := int(queue[0])
			queue = queue[1:]
			for _, e := range arcs[off[v]:off[v+1]] {
				w := other(e, v)
				if res.cluster[w] < 0 {
					res.cluster[w] = int32(s)
					res.parent[w] = int32(v)
					res.parentEdge[w] = e.id
					res.depth[w] = res.depth[v] + 1
					if int(res.depth[w]) > res.maxDepth {
						res.maxDepth = int(res.depth[w])
					}
					queue = append(queue, int32(w))
				}
			}
		}
	}
}

func other(e splitEdge, v int) int {
	if int(e.u) == v {
		return int(e.v)
	}
	return int(e.u)
}

func pow2half(t int) float64 {
	// 2^{t/2} without math.Pow in the hot loop.
	x := 1.0
	for i := 0; i < t/2; i++ {
		x *= 2
	}
	if t%2 == 1 {
		x *= 1.4142135623730951
	}
	return x
}
