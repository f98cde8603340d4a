package lsst

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"distflow/internal/csr"
	"distflow/internal/vtree"
)

// Edge is a multigraph edge with a positive length, as consumed by the
// spanning-tree construction (Theorem 3.1 allows arbitrary lengths in
// 2^{n^{o(1)}} and arbitrary prior contractions; both are supported:
// parallel edges are fine and contracted inputs are expressed by reusing
// vertex ids).
type Edge struct {
	U, V int
	Len  float64
	// Mult is the edge's multiplicity (§8.1's capacity-proportional
	// copies, carried implicitly); 0 means 1. A multiplicity-k edge is
	// distributionally one parallel class-weight unit counted k times —
	// it contributes k to its class's size and cut census — while the
	// race and the output tree see a single edge, which is exactly the
	// §8.1 expansion with duplicates collapsed (all k copies map to the
	// same original, and an original is chosen at most once).
	Mult int32
}

// Result is a low average-stretch spanning tree of the input multigraph.
type Result struct {
	// Tree is the rooted spanning tree (capacities unset, all 1).
	Tree *vtree.VTree
	// EdgeOf[v] is the index (into the input edge slice) of the edge
	// realizing tree edge (v, parent(v)); -1 at the root.
	EdgeOf []int
	// Iterations is the number of cluster-contract iterations run.
	Iterations int
	// PartitionCalls counts Partition invocations including restarts.
	PartitionCalls int
	// Rho is the SplitGraph target radius used.
	Rho int
	// Z is the edge-class base (class i holds lengths in [z^{i-1}, z^i)).
	Z float64
	// RaceSeconds is the wall time spent inside splitGraph (the BFS
	// races), summed over Partition calls — the scale ladder's
	// per-phase breakdown feeds from this.
	RaceSeconds float64
}

// AccountRounds charges the distributed cost of the construction per §7:
// each Partition call costs O(ρ·log²N·(D+√N)) rounds; we charge exactly
// ρ·log₂²N·(D+⌈√N⌉) per call with the measured call count.
func (r *Result) AccountRounds(n, diameter int) int64 {
	logN := math.Log2(float64(n) + 2)
	perCall := float64(r.Rho) * logN * logN * (float64(diameter) + math.Ceil(math.Sqrt(float64(n))))
	return int64(perCall * float64(r.PartitionCalls))
}

// Config tunes the construction. The zero value selects the paper's
// parameters with practical constants (see DESIGN.md §1 on constants).
type Config struct {
	// ZExponent scales the class base: z = 2^(ZExponent·√(log₂n·log₂log₂n)).
	// 0 means 1.0.
	ZExponent float64
	// MaxRestarts bounds Partition restarts per iteration (default 2·log₂ n).
	MaxRestarts int
}

// Workspace pools every scratch array of the construction — the
// contraction stamps, the compact working graph, the SplitGraph race
// queue, and the assembly buffers — so repeated SpanningTreeWS calls
// (three candidates per j-tree level, many levels per sampled tree)
// allocate nothing but the returned tree. The zero value is ready to
// use; it grows to the largest (n, m) seen.
type Workspace struct {
	class      []int
	chosen     []bool
	sn         []int
	snIdx      []int
	snStamp    []int
	remapTo    []int
	remapStamp []int
	seenStamp  []int
	rev        []int
	active     []classedEdge
	classCount []int
	off        []int32
	arcs       []splitEdge
	sws        splitWS
	epoch      int
	// assemble scratch
	aOff   []int
	aArc   []int
	parent []int
	edgeOf []int
	queue  []int
}

// NewWorkspace returns an empty workspace.
func NewWorkspace() *Workspace { return &Workspace{} }

func (ws *Workspace) grow(n, m int) {
	if cap(ws.sn) < n {
		ws.sn = make([]int, n)
		ws.snIdx = make([]int, n)
		ws.snStamp = make([]int, n)
		ws.remapTo = make([]int, n)
		ws.remapStamp = make([]int, n)
		ws.seenStamp = make([]int, n)
		ws.rev = make([]int, 0, n)
		ws.aOff = make([]int, n+1)
		ws.parent = make([]int, n)
		ws.edgeOf = make([]int, n)
	}
	if cap(ws.class) < m {
		ws.class = make([]int, m)
		ws.chosen = make([]bool, m)
	}
	if cap(ws.aArc) < 2*m {
		ws.aArc = make([]int, 2*m)
	}
}

// SpanningTree builds a spanning tree of expected average stretch
// 2^{O(√(log n log log n))} over the n-vertex multigraph given by edges.
// The multigraph must be connected.
func SpanningTree(n int, edges []Edge, cfg Config, rng *rand.Rand) (*Result, error) {
	return SpanningTreeWS(n, edges, cfg, rng, NewWorkspace())
}

// SpanningTreeWS is SpanningTree against a caller-held workspace. The
// returned Result's EdgeOf aliases the workspace and is valid until the
// next call with the same ws; the Tree is freshly allocated. Output is
// bit-identical to SpanningTree's.
func SpanningTreeWS(n int, edges []Edge, cfg Config, rng *rand.Rand, ws *Workspace) (*Result, error) {
	if n <= 0 {
		return nil, fmt.Errorf("lsst: empty graph")
	}
	if int64(len(edges)) > math.MaxInt32 {
		return nil, fmt.Errorf("lsst: %d edges exceed the int32 build path", len(edges))
	}
	for i, e := range edges {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			return nil, fmt.Errorf("lsst: edge %d endpoint out of range", i)
		}
		if e.Len <= 0 {
			return nil, fmt.Errorf("lsst: edge %d has non-positive length", i)
		}
	}
	zExp := cfg.ZExponent
	if zExp == 0 {
		zExp = 1
	}
	maxRestarts := cfg.MaxRestarts
	if maxRestarts == 0 {
		maxRestarts = 2 * int(math.Log2(float64(n)+2))
	}

	logN := math.Log2(float64(n) + 2)
	z := math.Pow(2, zExp*math.Sqrt(logN*math.Max(1, math.Log2(logN))))
	if z < 4 {
		z = 4
	}
	rho := int(z / 4)
	if rho < 1 {
		rho = 1
	}

	// Normalize lengths so the minimum is 1, then classify.
	minLen := math.Inf(1)
	for _, e := range edges {
		if e.Len < minLen {
			minLen = e.Len
		}
	}
	if math.IsInf(minLen, 1) {
		minLen = 1
	}
	ws.grow(n, len(edges))
	class := ws.class[:len(edges)] // 1-based class index
	maxClass := 1
	for i, e := range edges {
		c := 1
		l := e.Len / minLen
		for l >= z {
			l /= z
			c++
		}
		class[i] = c
		if c > maxClass {
			maxClass = c
		}
	}

	res := &Result{
		EdgeOf: ws.edgeOf[:n],
		Rho:    rho,
		Z:      z,
	}
	// Spanning tree assembled as a union of original edges.
	chosen := ws.chosen[:len(edges)]
	for i := range chosen {
		chosen[i] = false
	}

	// sn maps original vertices to current supernodes (contraction).
	sn := ws.sn[:n]
	for v := range sn {
		sn[v] = v
	}
	super := n // number of live supernodes

	// Epoch-stamped scratch replacing the per-iteration maps of the
	// contraction loop: compact supernode ids, cluster remaps and the
	// live-supernode census are all answered by O(1) array reads, with
	// one shared arena (including the SplitGraph race workspace) reused
	// across iterations — and, through the workspaces held in package
	// jtree and capprox, across j-tree levels and sampled trees.
	snIdx := ws.snIdx[:n]           // supernode -> compact index (valid when snStamp matches)
	snStamp := ws.snStamp[:n]       // epoch stamp for snIdx
	remapTo := ws.remapTo[:n]       // supernode -> contracted supernode
	remapStamp := ws.remapStamp[:n] // epoch stamp for remapTo
	seenStamp := ws.seenStamp[:n]   // epoch stamp for the census
	rev := ws.rev[:0]               // compact index -> supernode
	active := ws.active
	classCount := ws.classCount
	off := ws.off
	arcs := ws.arcs

	curRho := rho
	for j := 1; super > 1; j++ {
		if j > 4*maxClass+64 {
			return nil, fmt.Errorf("lsst: no convergence after %d iterations (disconnected input?)", j-1)
		}
		res.Iterations++
		ws.epoch++
		ep := ws.epoch
		useClass := j
		if useClass > maxClass {
			useClass = maxClass
		}
		// Build the contracted working graph over supernodes with edges
		// of classes ≤ useClass, dropping self-loops. Compact indices
		// are assigned in first-seen order (as the map version did).
		rev = rev[:0]
		idx := func(s int) int {
			if snStamp[s] == ep {
				return snIdx[s]
			}
			snStamp[s] = ep
			snIdx[s] = len(rev)
			rev = append(rev, s)
			return len(rev) - 1
		}
		active = active[:0]
		for i, e := range edges {
			if class[i] > useClass {
				continue
			}
			a, b := sn[e.U], sn[e.V]
			if a == b {
				continue
			}
			mult := e.Mult
			if mult <= 0 {
				mult = 1
			}
			active = append(active, classedEdge{
				e:    splitEdge{u: int32(idx(a)), v: int32(idx(b)), id: int32(i)},
				cl:   class[i],
				mult: mult,
			})
		}
		// Supernodes not touched by active edges still exist; they just
		// don't participate this iteration.
		nn := len(rev)
		if nn == 0 {
			// All remaining edges are in higher classes; advance j.
			continue
		}
		// CSR adjacency over the compact working graph, placed in active
		// order per vertex (the order the per-vertex appends produced).
		if cap(off) < nn+1 {
			off = make([]int32, nn+1)
		}
		off = off[:nn+1]
		for i := range off {
			off[i] = 0
		}
		for _, w := range active {
			off[w.e.u]++
			off[w.e.v]++
		}
		sum := int(csr.Offsets(off))
		if cap(arcs) < sum {
			arcs = make([]splitEdge, sum)
		}
		arcs = arcs[:sum]
		for _, w := range active {
			arcs[off[w.e.u]] = w.e
			off[w.e.u]++
			arcs[off[w.e.v]] = w.e
			off[w.e.v]++
		}
		csr.Shift(off)

		if cap(classCount) < useClass+1 {
			classCount = make([]int, useClass+1)
		}
		classCount = classCount[:useClass+1]
		for i := range classCount {
			classCount[i] = 0
		}
		// Class sizes count multiplicities: a weight-k edge is k parallel
		// copies of the §8.1 expansion.
		for _, w := range active {
			classCount[w.cl] += int(w.mult)
		}

		// Partition: run SplitGraph, restart while some class is
		// over-split (more than 4·log₂N/ρ of its edges cut, and at least
		// a handful, per §7 / Blelloch et al.).
		var sg *splitResult
		for attempt := 0; ; attempt++ {
			res.PartitionCalls++
			raceStart := time.Now() //distflow:allow detrand build-phase timing stat only; never feeds results
			sg = splitGraph(nn, off, arcs, curRho, rng, &ws.sws, raceWithBuckets)
			res.RaceSeconds += time.Since(raceStart).Seconds() //distflow:allow detrand build-phase timing stat only; never feeds results
			if attempt >= maxRestarts || !overSplit(sg, active, classCount, curRho, nn) {
				break
			}
		}

		// Adopt the cluster BFS trees into the spanning tree and contract.
		progress := false
		for v := 0; v < nn; v++ {
			if pe := sg.parentEdge[v]; pe >= 0 && !chosen[pe] {
				chosen[pe] = true
				progress = true
			}
		}
		if progress {
			// Contract: supernode -> its cluster's seed supernode.
			for v := 0; v < nn; v++ {
				remapTo[rev[v]] = rev[sg.cluster[v]]
				remapStamp[rev[v]] = ep
			}
			super = 0
			for v := 0; v < n; v++ {
				if remapStamp[sn[v]] == ep {
					sn[v] = remapTo[sn[v]]
				}
				if seenStamp[sn[v]] != ep {
					seenStamp[sn[v]] = ep
					super++
				}
			}
		} else if useClass == maxClass {
			// Degenerate randomness: widen the radius and retry (keeps
			// the worst-case guarantee; exercised only on tiny inputs).
			curRho *= 2
			if curRho > 4*n {
				return nil, fmt.Errorf("lsst: cannot make progress; input disconnected?")
			}
		}
	}

	// Save grown scratch back into the workspace for the next call.
	ws.rev = rev[:0]
	ws.active = active
	ws.classCount = classCount
	ws.off = off
	ws.arcs = arcs

	tree, edgeOf, err := assemble(n, edges, chosen, ws)
	if err != nil {
		return nil, err
	}
	res.Tree = tree
	res.EdgeOf = edgeOf
	return res, nil
}

// classedEdge pairs a working edge with its length class and implicit
// multiplicity.
type classedEdge struct {
	e    splitEdge
	cl   int
	mult int32
}

// overSplit reports whether some participating class has too many of its
// edges cut between clusters. Cut edges count their multiplicity, same
// as the class census — the restart rule sees exactly the §8.1-expanded
// multigraph.
func overSplit(sg *splitResult, active []classedEdge, classCount []int, rho, nn int) bool {
	logN := math.Log2(float64(nn) + 2)
	cut := make([]int, len(classCount))
	for _, w := range active {
		if sg.cluster[w.e.u] != sg.cluster[w.e.v] {
			cut[w.cl] += int(w.mult)
		}
	}
	for c := 1; c < len(classCount); c++ {
		if classCount[c] == 0 {
			continue
		}
		bound := 4 * logN / float64(rho) * float64(classCount[c])
		if float64(cut[c]) > bound && cut[c] > 8 {
			return true
		}
	}
	return false
}

// assemble roots the chosen edge set at vertex 0, building the chosen
// adjacency in CSR form from the workspace (per-vertex edge order is
// the chosen-index order the old appends produced).
func assemble(n int, edges []Edge, chosen []bool, ws *Workspace) (*vtree.VTree, []int, error) {
	aOff := ws.aOff[:n+1]
	for i := range aOff {
		aOff[i] = 0
	}
	count := 0
	for i, c := range chosen {
		if !c {
			continue
		}
		aOff[edges[i].U]++
		aOff[edges[i].V]++
		count++
	}
	if count != n-1 {
		return nil, nil, fmt.Errorf("lsst: chose %d edges, want %d", count, n-1)
	}
	sum := csr.Offsets(aOff)
	aArc := ws.aArc[:sum]
	for i, c := range chosen {
		if !c {
			continue
		}
		aArc[aOff[edges[i].U]] = i
		aOff[edges[i].U]++
		aArc[aOff[edges[i].V]] = i
		aOff[edges[i].V]++
	}
	csr.Shift(aOff)

	parent := ws.parent[:n]
	edgeOf := ws.edgeOf[:n]
	for v := range parent {
		parent[v] = -2
		edgeOf[v] = -1
	}
	parent[0] = -1
	queue := ws.queue[:0]
	queue = append(queue, 0)
	for qi := 0; qi < len(queue); qi++ {
		v := queue[qi]
		for _, ei := range aArc[aOff[v]:aOff[v+1]] {
			w := edges[ei].U + edges[ei].V - v
			if parent[w] == -2 {
				parent[w] = v
				edgeOf[w] = ei
				queue = append(queue, w)
			}
		}
	}
	ws.queue = queue
	for v, p := range parent {
		if p == -2 {
			return nil, nil, fmt.Errorf("lsst: vertex %d not spanned", v)
		}
	}
	t, err := vtree.New(0, parent, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("lsst: %w", err)
	}
	return t, edgeOf, nil
}

// AverageStretch measures the average stretch of the tree over the
// input multigraph: (Σ_e dT(u_e,v_e)) / (Σ_e ℓ(e)), the Theorem 3.1
// quantity (with unit edge multiplicities).
func AverageStretch(res *Result, edges []Edge) float64 {
	t := res.Tree
	lengths := make([]float64, t.N())
	for v := range lengths {
		if ei := res.EdgeOf[v]; ei >= 0 {
			lengths[v] = edges[ei].Len
		}
	}
	pairs := make([]vtree.EdgeEndpoint, len(edges))
	var denom float64
	for i, e := range edges {
		pairs[i] = vtree.EdgeEndpoint{U: e.U, V: e.V, Cap: 1}
		denom += e.Len
	}
	num := t.StretchSum(pairs, lengths)
	if denom == 0 {
		return 0
	}
	return num / denom
}
