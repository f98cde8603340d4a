package shard

import (
	"math"

	"distflow/internal/capprox"
	"distflow/internal/numutil"
	"distflow/internal/par"
)

// The per-iteration solver operators. Each one schedules the same
// per-chunk (or per-vertex-range) kernels the single-address-space path
// runs — numutil's soft-max kernels, graph.DivergenceRange,
// graph.GradientRange, capprox's row kernels — over the shard's owned
// ranges, with the boundary exchange and the coordinator fold around
// them; the comments name the flat reference. All of them serialize on
// engine.mu — results are pure functions of the inputs, so
// serialization cannot affect values, only wall time.

func (e *Engine) edgeActive(k int) bool {
	return e.part.EdgeChunkHi[k] > e.part.EdgeChunkLo[k]
}

func (e *Engine) vertActive(k int) bool {
	return e.part.VertChunkHi[k] > e.part.VertChunkLo[k]
}

// bcast ships val from the coordinator to every active peer; callers
// on the receiving side pick it up with recvScalar.
func (e *Engine) bcast(s *shardState, val float64, active func(int) bool) {
	for j := 0; j < e.P; j++ {
		if j == s.id || !active(j) {
			continue
		}
		s.outVals[j] = append(s.outVals[j][:0], val)
		e.send(s, j)
	}
}

// recvScalar returns the coordinator's broadcast value on shard s: the
// coordinator reads its own copy, active peers receive it, and
// inactive shards (which received nothing) get 0.
func (e *Engine) recvScalar(s *shardState, val float64, active func(int) bool) float64 {
	switch {
	case s.id == coord:
		e.bcast(s, val, active)
		return val
	case active(s.id):
		return e.recv(s, coord)[0]
	}
	return 0
}

// gatherPartials (coordinator only) assembles the per-chunk partials
// shipped by every active shard into e.partials at global chunk
// positions.
func (e *Engine) gatherPartials(s *shardState, chunkLo, chunkHi []int) {
	for j := 0; j < e.P; j++ {
		if chunkHi[j] <= chunkLo[j] {
			continue
		}
		copy(e.partials[chunkLo[j]:chunkHi[j]], e.recv(s, j))
	}
}

// gatherTreePartials assembles per-(tree, chunk) partials: shard j
// ships trees × ownedChunks values grouped by tree; the coordinator
// scatters them to e.partials[t*VertChunks + chunk].
func (e *Engine) gatherTreePartials(s *shardState, trees int) {
	pt := e.part
	for j := 0; j < e.P; j++ {
		cnt := pt.VertChunkHi[j] - pt.VertChunkLo[j]
		if cnt <= 0 {
			continue
		}
		vals := e.recv(s, j)
		for t := 0; t < trees; t++ {
			copy(e.partials[t*pt.VertChunks+pt.VertChunkLo[j]:t*pt.VertChunks+pt.VertChunkHi[j]],
				vals[t*cnt:(t+1)*cnt])
		}
	}
}

// shipPartials sends shard s's accumulated coordinator outbox unless s
// is the coordinator (which reads its own outbox) or has nothing.
func (e *Engine) shipPartials(s *shardState) {
	if s.id != coord && len(s.outVals[coord]) > 0 {
		e.send(s, coord)
	}
}

// SoftMaxGradScaled is numutil.SoftMaxGradScaledPar(f, scale, grad):
// smax of the implicit vector y_i = f_i·scale_i with the gradient
// numerators and 1/sum scaling written into grad. Three rounds:
// max-shift gather, broadcast+exp-sum gather, broadcast+gradient
// scaling. Each shard runs numutil's chunk kernels over its owned
// par.Grid chunks and the coordinator folds them with par.FoldMax/
// par.FoldSum — the flat path's exact float expression.
func (e *Engine) SoftMaxGradScaled(f, scaleVec, grad []float64) (float64, Cost) {
	e.mu.Lock()
	defer e.mu.Unlock()
	var c Cost
	n := len(f)
	if n == 0 {
		return math.Inf(-1), c
	}
	pt := e.part
	e.round(&c, func(id int) {
		s := e.sh[id]
		s.resetOut()
		for ch := pt.EdgeChunkLo[id]; ch < pt.EdgeChunkHi[id]; ch++ {
			lo, hi := par.Chunk(ch, pt.EdgeSize, n)
			s.outVals[coord] = append(s.outVals[coord], numutil.ScaledAbsMax(f[lo:hi], scaleVec[lo:hi]))
		}
		e.shipPartials(s)
		if id == coord {
			e.gatherPartials(s, pt.EdgeChunkLo, pt.EdgeChunkHi)
			e.coordVal[0] = par.FoldMax(e.partials[:pt.EdgeChunks])
		}
	})
	m := e.coordVal[0]
	e.round(&c, func(id int) {
		s := e.sh[id]
		s.resetOut()
		mm := e.recvScalar(s, e.coordVal[0], e.edgeActive)
		for ch := pt.EdgeChunkLo[id]; ch < pt.EdgeChunkHi[id]; ch++ {
			lo, hi := par.Chunk(ch, pt.EdgeSize, n)
			s.outVals[coord] = append(s.outVals[coord], numutil.ScaledExpPairs(f[lo:hi], scaleVec[lo:hi], grad[lo:hi], mm))
		}
		e.shipPartials(s)
		if id == coord {
			e.gatherPartials(s, pt.EdgeChunkLo, pt.EdgeChunkHi)
			e.coordVal[1] = par.FoldSum(e.partials[:pt.EdgeChunks])
		}
	})
	sum := e.coordVal[1]
	e.round(&c, func(id int) {
		s := e.sh[id]
		s.resetOut()
		sv := e.recvScalar(s, e.coordVal[1], e.edgeActive)
		numutil.ScaleBy(grad[pt.EdgeLo[id]:pt.EdgeHi[id]], 1/sv)
	})
	e.finishCost(&c)
	return m + math.Log(sum), c
}

// Residual is graph.DivergenceInto followed by the element-wise
// r = bs − div: one round ships every boundary flow value to the
// vertex owners that need it, then each shard runs
// graph.DivergenceRange over its vertices, reading flows from its
// mirror (owned slots copied in, boundary slots received). Pass
// r == nil for plain divergence.
func (e *Engine) Residual(f, bs, div, r []float64) Cost {
	e.mu.Lock()
	defer e.mu.Unlock()
	var c Cost
	pt := e.part
	e.round(&c, func(id int) {
		s := e.sh[id]
		s.resetOut()
		for j := 0; j < e.P; j++ {
			lst := e.edgeSend[id][j]
			if j == id || len(lst) == 0 {
				continue
			}
			for _, ei := range lst {
				s.outVals[j] = append(s.outVals[j], f[ei])
			}
			e.send(s, j)
		}
		for j := 0; j < e.P; j++ {
			lst := e.edgeSend[j][id]
			if j == id || len(lst) == 0 {
				continue
			}
			vals := e.recv(s, j)
			for i, ei := range lst {
				s.fMirror[ei] = vals[i]
			}
		}
		lo, hi := pt.EdgeLo[id], pt.EdgeHi[id]
		copy(s.fMirror[lo:hi], f[lo:hi])
		e.g.DivergenceRange(s.fMirror, div, pt.VertLo[id], pt.VertHi[id])
		if r != nil {
			for v := pt.VertLo[id]; v < pt.VertHi[id]; v++ {
				r[v] = bs[v] - div[v]
			}
		}
	})
	e.finishCost(&c)
	return c
}

// PotentialRT is capprox.Approximator.PotentialRT: φ₂ = smax(y) for
// y = ta·R·r with node potentials π = Rᵀ·∇smax(y), executed as
// level-synchronous tree sweeps over all trees at once, with capprox's
// row kernels run over each shard's owned vertex range (the exp-pair
// sums per owned par.Grid chunk). sub and pt are the caller's per-tree
// scratch (capprox.EvalScratch.Sub/PT); pi receives the potentials.
func (e *Engine) PotentialRT(r []float64, ta float64, sub, pt [][]float64, pi []float64) (float64, Cost) {
	e.mu.Lock()
	defer e.mu.Unlock()
	var c Cost
	K := len(e.trees)
	part := e.part
	// Init: per-tree accumulators start as r on owned slots (the
	// collective equivalent of SubtreeSumsInto's copy).
	e.round(&c, func(id int) {
		lo, hi := part.VertLo[id], part.VertHi[id]
		for k := 0; k < K; k++ {
			copy(sub[k][lo:hi], r[lo:hi])
		}
	})
	e.sweepUp(&c, sub)
	// Pass 1 scaling: y = ta·y/scale with per-tree |y| maxima; maxima
	// gather at the coordinator (max is exact, so any fold grouping
	// reproduces the sequential per-tree max).
	e.round(&c, func(id int) {
		s := e.sh[id]
		s.resetOut()
		lo, hi := part.VertLo[id], part.VertHi[id]
		for k, t := range e.trees {
			s.outVals[coord] = append(s.outVals[coord], capprox.ScaleRow(sub[k], e.scale[k], t.Root, ta, lo, hi))
		}
		if id != coord && e.vertActive(id) {
			e.send(s, coord)
		}
		if id == coord {
			tm := e.partials[:K]
			for k := range tm {
				tm[k] = 0
			}
			for j := 0; j < e.P; j++ {
				if !e.vertActive(j) {
					continue
				}
				vals := e.recv(s, j)
				for k := 0; k < K; k++ {
					if vals[k] > tm[k] {
						tm[k] = vals[k]
					}
				}
			}
			m := 0.0
			for _, v := range tm {
				if v > m {
					m = v
				}
			}
			e.coordVal[0] = m
		}
	})
	m := e.coordVal[0]
	// Pass 2: shifted exponential sums per (tree, chunk); the
	// coordinator folds chunk partials in chunk order per tree, then
	// trees in tree order — the canonical baseline expression.
	e.round(&c, func(id int) {
		s := e.sh[id]
		s.resetOut()
		mm := e.recvScalar(s, e.coordVal[0], e.vertActive)
		for k, t := range e.trees {
			for ch := part.VertChunkLo[id]; ch < part.VertChunkHi[id]; ch++ {
				lo, hi := par.Chunk(ch, part.VertSize, part.N)
				s.outVals[coord] = append(s.outVals[coord], capprox.ExpPairsRow(sub[k], t.Root, mm, lo, hi))
			}
		}
		if id != coord && e.vertActive(id) {
			e.send(s, coord)
		}
		if id == coord {
			e.gatherTreePartials(s, K)
			total := 0.0
			for k := 0; k < K; k++ {
				tsum := 0.0
				for ch := 0; ch < part.VertChunks; ch++ {
					tsum += e.partials[k*part.VertChunks+ch]
				}
				total += tsum
			}
			e.coordVal[1] = total
		}
	})
	sum := e.coordVal[1]
	// Pass 3 prep: the Rᵀ sweep inputs on owned slots; then the
	// top-down sweeps and the per-vertex cross-tree accumulation in
	// tree order.
	e.round(&c, func(id int) {
		s := e.sh[id]
		s.resetOut()
		inv := 1 / e.recvScalar(s, e.coordVal[1], e.vertActive)
		lo, hi := part.VertLo[id], part.VertHi[id]
		for k, t := range e.trees {
			capprox.PrepRT(pt[k], sub[k], e.scale[k], t.Root, inv, lo, hi)
		}
	})
	e.sweepDn(&c, pt)
	e.round(&c, func(id int) {
		capprox.SumTrees(pt, pi, part.VertLo[id], part.VertHi[id])
	})
	e.finishCost(&c)
	return m + math.Log(sum), c
}

// GradientDelta is sherman's gradient/duality-gap reduction: one round
// ships boundary potentials to edge owners, one runs
// graph.GradientRange per owned edge chunk — reading potentials from
// the shard's mirror (owned slots copied in, boundary slots received) —
// with the chunk partials of Σ cap·|grad| folded at the coordinator.
func (e *Engine) GradientDelta(w1, invCap []float64, ta float64, pi, grad []float64) (float64, Cost) {
	e.mu.Lock()
	defer e.mu.Unlock()
	var c Cost
	pt := e.part
	e.round(&c, func(id int) {
		s := e.sh[id]
		s.resetOut()
		for j := 0; j < e.P; j++ {
			lst := e.vertSend[id][j]
			if j == id || len(lst) == 0 {
				continue
			}
			for _, v := range lst {
				s.outVals[j] = append(s.outVals[j], pi[v])
			}
			e.send(s, j)
		}
		for j := 0; j < e.P; j++ {
			lst := e.vertSend[j][id]
			if j == id || len(lst) == 0 {
				continue
			}
			vals := e.recv(s, j)
			for i, v := range lst {
				s.piMirror[v] = vals[i]
			}
		}
	})
	e.round(&c, func(id int) {
		s := e.sh[id]
		s.resetOut()
		copy(s.piMirror[pt.VertLo[id]:pt.VertHi[id]], pi[pt.VertLo[id]:pt.VertHi[id]])
		for ch := pt.EdgeChunkLo[id]; ch < pt.EdgeChunkHi[id]; ch++ {
			lo, hi := par.Chunk(ch, pt.EdgeSize, pt.M)
			s.outVals[coord] = append(s.outVals[coord], e.g.GradientRange(w1, invCap, ta, s.piMirror, grad, lo, hi))
		}
		e.shipPartials(s)
		if id == coord {
			e.gatherPartials(s, pt.EdgeChunkLo, pt.EdgeChunkHi)
			e.coordVal[0] = par.FoldSum(e.partials[:pt.EdgeChunks])
		}
	})
	delta := e.coordVal[0]
	e.finishCost(&c)
	return delta, c
}

// NormRb is capprox.Approximator.NormRb: ‖R·b‖∞ via a bottom-up sweep
// of every tree, capprox.RowAbsMax over each shard's owned range, and
// an exact max fold. sub is per-tree scratch (len trees × N),
// typically the caller's EvalScratch.Sub between evaluations.
func (e *Engine) NormRb(b []float64, sub [][]float64) (float64, Cost) {
	e.mu.Lock()
	defer e.mu.Unlock()
	var c Cost
	part := e.part
	e.round(&c, func(id int) {
		lo, hi := part.VertLo[id], part.VertHi[id]
		for k := range e.trees {
			copy(sub[k][lo:hi], b[lo:hi])
		}
	})
	e.sweepUp(&c, sub)
	e.round(&c, func(id int) {
		s := e.sh[id]
		s.resetOut()
		lo, hi := part.VertLo[id], part.VertHi[id]
		mm := 0.0
		for k, t := range e.trees {
			if a := capprox.RowAbsMax(sub[k], e.scale[k], t.Root, lo, hi); a > mm {
				mm = a
			}
		}
		s.outVals[coord] = append(s.outVals[coord], mm)
		if id != coord && e.vertActive(id) {
			e.send(s, coord)
		}
		if id == coord {
			m := 0.0
			for j := 0; j < e.P; j++ {
				if !e.vertActive(j) {
					continue
				}
				if v := e.recv(s, j)[0]; v > m {
					m = v
				}
			}
			e.coordVal[0] = m
		}
	})
	norm := e.coordVal[0]
	e.finishCost(&c)
	return norm, c
}
