package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"distflow"
)

// Correctness gate. Every answer the benchmark checks is compared with
// the exact maximum flow (sequential Dinic) and its flow vector is
// checked for capacity feasibility and conservation. All of it runs
// outside the timed windows.

// conserveTol is the relative slack on flow conservation: the solver's
// flows conserve exactly up to floating-point rounding.
const conserveTol = 1e-9

// checkFlow verifies one max-flow answer (value, flow) for the pair
// s-t on G against the exact maximum, allowing exact ÷ value up to
// maxRatio, and returns that ratio.
func checkFlow(G *distflow.Graph, s, t int, value float64, flow []float64, exact int64, maxRatio float64) (float64, error) {
	if len(flow) != G.M() {
		return 0, fmt.Errorf("pair %d-%d: flow has %d entries, graph has %d edges", s, t, len(flow), G.M())
	}
	if !(value > 0) || math.IsInf(value, 0) {
		return 0, fmt.Errorf("pair %d-%d: value %v is not positive and finite", s, t, value)
	}
	if value > float64(exact)*(1+conserveTol) {
		return 0, fmt.Errorf("pair %d-%d: value %v exceeds the exact maximum %d", s, t, value, exact)
	}
	ratio := float64(exact) / value
	if ratio > maxRatio {
		return ratio, fmt.Errorf("pair %d-%d: exact/value = %v exceeds %v", s, t, ratio, maxRatio)
	}
	div := make([]float64, G.N())
	for e, fe := range flow {
		u, v, c := G.EdgeEndpoints(e)
		if math.IsNaN(fe) || math.Abs(fe) > float64(c)*(1+conserveTol) {
			return ratio, fmt.Errorf("pair %d-%d: edge %d carries %v over capacity %d", s, t, e, fe, c)
		}
		div[u] += fe
		div[v] -= fe
	}
	for v, d := range div {
		want := 0.0
		switch v {
		case s:
			want = value
		case t:
			want = -value
		}
		if math.Abs(d-want) > conserveTol*(1+math.Abs(want)) {
			return ratio, fmt.Errorf("pair %d-%d: net outflow %v at vertex %d, want %v", s, t, d, v, want)
		}
	}
	return ratio, nil
}

// Fingerprint identifies a set of answer values, each with the index
// of its query, bit for bit: two runs (or two workloads on the same
// graphs and pairs, such as gnp-cold and gnp-shard2) agree exactly
// when their fingerprints do.
type Fingerprint struct {
	N    int
	Sum  float64
	Hash uint64
}

func fingerprint(index []int, values []float64) Fingerprint {
	h := fnv.New64a()
	var buf [16]byte
	sum := 0.0
	for i, v := range values {
		binary.LittleEndian.PutUint64(buf[:8], uint64(index[i]))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(v))
		h.Write(buf[:])
		sum += v
	}
	return Fingerprint{N: len(values), Sum: sum, Hash: h.Sum64()}
}

func (f Fingerprint) String() string {
	return fmt.Sprintf("%016x (%d values, sum %.17g)", f.Hash, f.N, f.Sum)
}
