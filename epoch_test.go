package distflow

// Epoch lifecycle tests (DESIGN.md §9): query/update race freedom,
// update atomicity on injected failures, snapshot isolation, epoch
// retirement, and per-epoch warm-cache scoping.

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"distflow/internal/faultinject"
)

// TestConcurrentQueryUpdateRace hammers MaxFlowBatch and RouteDemand
// from query goroutines while UpdateTopology and UpdateCapacities
// churn the router. On the old in-place router this was a data race
// (crashed under -race); under epochs every query must complete
// cleanly against a consistent snapshot. The churn keeps the vertex
// set fixed (edge inserts, deletions of previously inserted edges,
// capacity edits) so every query stays valid in every epoch and the
// test can treat ANY error as a failure. The CI determinism matrix
// runs it at GOMAXPROCS 1 and 4.
func TestConcurrentQueryUpdateRace(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomConnectedGraph(60, rng)
	n := g.N()
	r, err := NewRouter(g, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	const updates = 9
	var wg sync.WaitGroup
	stop := make(chan struct{})

	queryErr := make(chan error, 4)
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			qrng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				s, tt := qrng.Intn(n/2), n/2+qrng.Intn(n/2)
				if qrng.Intn(2) == 0 {
					if _, err := r.MaxFlowBatch([]STPair{{S: s, T: tt}, {S: tt, T: s}}); err != nil {
						queryErr <- err
						return
					}
				} else {
					b := make([]float64, n)
					b[s], b[tt] = 1, -1
					if _, _, err := r.RouteDemand(b, 0.5); err != nil {
						queryErr <- err
						return
					}
				}
			}
		}(int64(100 + w))
	}

	// Update thread: rotate edge inserts, deletes of inserted edges, and
	// capacity edits while the query goroutines run.
	urng := rand.New(rand.NewSource(7))
	var added []int
	for i := 0; i < updates; i++ {
		var err error
		switch i % 3 {
		case 0:
			u, v := urng.Intn(n), urng.Intn(n)
			if u == v {
				v = (u + 1) % n
			}
			var ur *UpdateResult
			ur, err = r.UpdateTopology([]TopoEdit{AddEdgeEdit(u, v, 1+urng.Int63n(15))})
			if ur != nil {
				added = append(added, ur.AddedEdges...)
			}
		case 1:
			if len(added) == 0 {
				continue
			}
			e := added[0]
			added = added[1:]
			_, err = r.UpdateTopology([]TopoEdit{DeleteEdgeEdit(e)})
		default:
			_, err = r.UpdateCapacities(randomEdits(g, urng))
		}
		if err != nil {
			t.Errorf("update %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-queryErr:
		t.Fatalf("query during churn: %v", err)
	default:
	}
}

// TestUpdateTopologyFailureAtomicity is the regression test for the
// pre-epoch bug where a resample/rebuild failure past planning left
// the graph mutated against a partially updated approximator. With the
// injected failure the whole batch must vanish: the graph, α, epoch
// sequence, and query answers are bit-identical to the pre-update
// state, and replaying the batch succeeds.
func TestUpdateTopologyFailureAtomicity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomConnectedGraph(40, rng)
	r, err := NewRouter(g, Options{Seed: 2, DisableWarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	s, tt := activePair(g)
	ref, err := r.MaxFlow(s, tt)
	if err != nil {
		t.Fatal(err)
	}
	n0, m0, alpha0, seq0 := g.N(), g.M(), r.Alpha(), r.EpochSeq()

	batch := []TopoEdit{
		AddEdgeEdit(0, g.N()-1, 7),
		AddVertexEdit(Link{To: 1, Cap: 3}, Link{To: 2, Cap: 5}),
	}
	disarm := faultinject.Arm(topoResampleSite, faultinject.Fault{Err: errors.New("injected sampler failure")})
	_, uerr := r.UpdateTopology(batch)
	disarm()
	if uerr == nil {
		t.Fatal("injected failure did not surface")
	}

	// Nothing may have changed — not the wrapper graph, not the epoch.
	if g.N() != n0 || g.M() != m0 {
		t.Fatalf("failed update mutated graph: n %d→%d, m %d→%d", n0, g.N(), m0, g.M())
	}
	if r.Alpha() != alpha0 || r.EpochSeq() != seq0 {
		t.Fatalf("failed update mutated router: alpha %v→%v, epoch %d→%d", alpha0, r.Alpha(), seq0, r.EpochSeq())
	}
	res, err := r.MaxFlow(s, tt)
	if err != nil {
		t.Fatalf("query after failed update: %v", err)
	}
	if res.Value != ref.Value || res.Iterations != ref.Iterations {
		t.Fatalf("pre-update serving drifted: value %v→%v, iters %d→%d",
			ref.Value, res.Value, ref.Iterations, res.Iterations)
	}
	// The failure is transient by construction: replaying the identical
	// batch (deletes would elide, inserts would duplicate on the OLD
	// buggy router) must now apply cleanly exactly once.
	if _, err := r.UpdateTopology(batch); err != nil {
		t.Fatalf("replay after discarded batch: %v", err)
	}
	if g.N() != n0+1 || r.EpochSeq() != seq0+1 {
		t.Fatalf("replay applied wrong: n=%d (want %d), epoch=%d (want %d)", g.N(), n0+1, r.EpochSeq(), seq0+1)
	}
}

// TestEpochSnapshotIsolation pins the published epoch (as an in-flight
// query does), applies an update, and asserts the pinned epoch still
// answers bit-identically to the pre-update router while the published
// epoch serves the new state.
func TestEpochSnapshotIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomConnectedGraph(40, rng)
	r, err := NewRouter(g, Options{Seed: 2, DisableWarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	s, tt := activePair(g)
	ref, err := r.MaxFlow(s, tt)
	if err != nil {
		t.Fatal(err)
	}

	ep := r.acquire() // the in-flight query's pin
	defer ep.release()

	// Publish an effective capacity update (double edge 0).
	if _, err := r.UpdateCapacities([]CapEdit{{Edge: 0, Cap: g.g.Cap(0) * 2}}); err != nil {
		t.Fatal(err)
	}
	if r.curEpoch() == ep {
		t.Fatal("update did not publish a new epoch")
	}

	// The pinned snapshot answers exactly as before the update.
	old, _, err := ep.maxFlowWarm(context.Background(), s, tt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if old.Value != ref.Value || old.Iterations != ref.Iterations || old.Alpha != ref.Alpha {
		t.Fatalf("pinned epoch drifted: value %v→%v, iters %d→%d, alpha %v→%v",
			ref.Value, old.Value, ref.Iterations, old.Iterations, ref.Alpha, old.Alpha)
	}
	// And the pinned graph still has the old capacity.
	if ep.g.Cap(0) == r.curEpoch().g.Cap(0) {
		t.Fatal("epochs share capacity state")
	}
}

// TestEpochRetirementFreesMemory runs a 100-update churn loop and
// asserts (a) every superseded epoch drains once queries finish, and
// (b) heap growth stays bounded by a few epochs, not 100 — retired
// snapshots really are released to the GC.
func TestEpochRetirementFreesMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomConnectedGraph(300, rng)
	r, err := NewRouter(g, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	s, tt := activePair(g)
	if _, err := r.MaxFlow(s, tt); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	const updates = 100
	published := uint64(0)
	for i := 0; i < updates; i++ {
		e := i % g.M()
		ur, err := r.UpdateCapacities([]CapEdit{{Edge: e, Cap: 1 + int64(i%7)}})
		if err != nil {
			t.Fatal(err)
		}
		if ur.Edits > 0 {
			published++
		}
		if i%10 == 0 { // keep queries in the mix so epochs drain via release
			if _, err := r.MaxFlow(s, tt); err != nil {
				t.Fatal(err)
			}
		}
	}
	if published < updates/2 {
		t.Fatalf("churn loop too weak: only %d effective updates", published)
	}
	if drained := r.epochsDrained(); uint64(drained) != published {
		t.Fatalf("drained %d epochs, want %d (every superseded epoch must drain)", drained, published)
	}
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	// Ceiling: the live set is one epoch (plus test noise). If retired
	// epochs leaked, 100 copies of trees+rows+graph would remain live —
	// tens of MB at n=300. Allow a generous 8 MB of drift.
	growth := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if growth > 8<<20 {
		t.Fatalf("heap grew %d bytes over %d updates — retired epochs retained?", growth, updates)
	}
}

// TestEpochWarmCacheScoping asserts the warm cache is scoped to its
// epoch: repeats warm-start within an epoch, and an effective update
// starts the next epoch cold — a flow cached against the old graph
// can never bias a solve on the new one.
func TestEpochWarmCacheScoping(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := randomConnectedGraph(40, rng)
	r, err := NewRouter(g, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	s, tt := activePair(g)
	if _, err := r.MaxFlow(s, tt); err != nil {
		t.Fatal(err)
	}
	warm, err := r.MaxFlow(s, tt)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.WarmStarted {
		t.Fatal("repeat within an epoch did not warm-start")
	}
	oldEp := r.curEpoch()
	if oldEp.cache.len() == 0 {
		t.Fatal("epoch cache empty after queries")
	}

	if _, err := r.UpdateCapacities([]CapEdit{{Edge: 0, Cap: g.g.Cap(0) + 1}}); err != nil {
		t.Fatal(err)
	}
	newEp := r.curEpoch()
	if newEp == oldEp {
		t.Fatal("update did not publish a new epoch")
	}
	if newEp.cache.len() != 0 {
		t.Fatal("new epoch inherited warm-cache entries")
	}
	if oldEp.cache.len() == 0 {
		t.Fatal("old epoch's cache was cleared — epochs must not share the cache")
	}
	cold, err := r.MaxFlow(s, tt)
	if err != nil {
		t.Fatal(err)
	}
	if cold.WarmStarted {
		t.Fatal("query on the new epoch warm-started from a stale cross-epoch entry")
	}
}

// TestEpsilonValidation pins the unified ε contract: 0 defaults, NaN
// and out-of-range values fail fast at the API boundary with a clear
// error instead of reaching the gradient loop.
func TestEpsilonValidation(t *testing.T) {
	g := gridGraph(3, 3)
	for _, bad := range []float64{math.NaN(), -0.25, 1, 1.75} {
		if _, err := NewRouter(g, Options{Epsilon: bad}); err == nil {
			t.Errorf("NewRouter accepted Epsilon=%v", bad)
		}
	}
	r, err := NewRouter(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, g.N())
	b[0], b[g.N()-1] = 1, -1
	for _, bad := range []float64{math.NaN(), -0.25, 1, 1.75} {
		if _, _, err := r.RouteDemand(b, bad); err == nil {
			t.Errorf("RouteDemand accepted eps=%v", bad)
		}
		if _, err := r.RouteDemandBatch([][]float64{b}, bad); err == nil {
			t.Errorf("RouteDemandBatch accepted eps=%v", bad)
		}
	}
	// eps=0 selects the documented 0.5 default on every path.
	if _, _, err := r.RouteDemand(b, 0); err != nil {
		t.Errorf("RouteDemand rejected eps=0 (default): %v", err)
	}
}
