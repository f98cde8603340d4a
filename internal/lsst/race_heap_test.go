package lsst

// The RaceOrderVersion-1 race: a binary heap in container/heap's sift
// order. Production builds use the version-2 bucket queue
// (raceWithBuckets); this copy is the reference that
// TestRaceBucketMatchesHeapClusters pins the bucket queue against.

// raceHeap is a binary min-heap of raceItems ordered by key. It
// replicates container/heap's sift algorithm exactly — identical
// comparison and swap sequences, hence an identical pop order including
// the (unspecified but deterministic) order among equal keys.
type raceHeap []raceItem

func (h *raceHeap) push(x raceItem) {
	*h = append(*h, x)
	// Sift up (container/heap's up).
	hh := *h
	j := len(hh) - 1
	for {
		i := (j - 1) / 2
		if i == j || hh[j].key >= hh[i].key {
			break
		}
		hh[i], hh[j] = hh[j], hh[i]
		j = i
	}
}

func (h *raceHeap) pop() raceItem {
	hh := *h
	n := len(hh) - 1
	hh[0], hh[n] = hh[n], hh[0]
	// Sift down over hh[:n] (container/heap's down).
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && hh[j2].key < hh[j1].key {
			j = j2
		}
		if hh[j].key >= hh[i].key {
			break
		}
		hh[i], hh[j] = hh[j], hh[i]
		i = j
	}
	x := hh[n]
	*h = hh[:n]
	return x
}

// raceWithHeap is the RaceOrderVersion-1 race (a raceFunc): identical
// claims to raceWithBuckets, pop order among equal keys per
// container/heap's sift sequence.
func raceWithHeap(seedBuf []raceItem, _ int, off []int32, arcs []splitEdge, budget []int32, res *splitResult, _ *splitWS) {
	var h raceHeap
	for _, it := range seedBuf {
		h.push(it)
	}
	for len(h) > 0 {
		it := h.pop()
		v, expand := claim(it, budget, res)
		if !expand {
			continue
		}
		nextKey := it.key + 1<<32 // same source, time+1
		for _, e := range arcs[off[v]:off[v+1]] {
			w := other(e, v)
			if res.cluster[w] < 0 {
				h.push(raceItem{key: nextKey, node: int32(w), parent: int32(v), edge: e.id})
			}
		}
	}
}
