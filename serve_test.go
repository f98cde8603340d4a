package distflow

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestServerCoalescing parks a set of concurrent submissions of the
// same (s,t) pair behind a fake in-progress leader, then releases the
// queue and asserts one solve served them all: every waiter got the
// identical *Result, and the counters attribute all but one submission
// to coalescing.
func TestServerCoalescing(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := randomConnectedGraph(40, rng)
	r, err := NewRouter(g, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(r, ServeOptions{})
	s, tt := activePair(g)

	// Pretend a leader is mid-drain so submissions queue instead of
	// solving immediately.
	srv.mu.Lock()
	srv.leading = true
	srv.mu.Unlock()

	const repeats = 8
	results := make([]*Result, repeats)
	errs := make([]error, repeats)
	var wg sync.WaitGroup
	for i := 0; i < repeats; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = srv.MaxFlow(s, tt)
		}(i)
	}
	// Wait until all repeats are parked on the pair's waiter list.
	p := STPair{S: s, T: tt}
	for deadline := time.Now().Add(5 * time.Second); ; {
		srv.mu.Lock()
		parked := len(srv.waiters[p])
		srv.mu.Unlock()
		if parked == repeats {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d submissions parked", parked, repeats)
		}
		time.Sleep(time.Millisecond)
	}

	// Release the fake leader; the next submission (a different pair)
	// elects itself leader and drains everything in one batch.
	srv.mu.Lock()
	srv.leading = false
	srv.mu.Unlock()
	other, err := srv.MaxFlow(tt, s)
	if err != nil {
		t.Fatal(err)
	}
	if other == nil || other.Value <= 0 {
		t.Fatalf("leader's own query got %+v", other)
	}
	wg.Wait()

	for i := 0; i < repeats; i++ {
		if errs[i] != nil {
			t.Fatalf("waiter %d: %v", i, errs[i])
		}
		if results[i] != results[0] {
			t.Fatalf("waiter %d got a different *Result — pair was not coalesced into one solve", i)
		}
	}
	st := srv.Stats()
	if st.Queries != repeats+1 {
		t.Errorf("Queries = %d, want %d", st.Queries, repeats+1)
	}
	if st.Coalesced != repeats-1 {
		t.Errorf("Coalesced = %d, want %d (all repeats after the first)", st.Coalesced, repeats-1)
	}
	if st.Batches != 1 {
		t.Errorf("Batches = %d, want 1 (both pairs drained together)", st.Batches)
	}
	if st.Rejected != 0 {
		t.Errorf("Rejected = %d, want 0", st.Rejected)
	}
}

// TestServerAdmissionControl fills the in-flight budget and asserts the
// next submission is shed with ErrOverloaded (and counted), while a
// submission after the budget frees up succeeds.
func TestServerAdmissionControl(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	g := randomConnectedGraph(30, rng)
	r, err := NewRouter(g, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(r, ServeOptions{MaxInFlight: 3})
	s, tt := activePair(g)

	// Occupy the whole budget (as parked queries would).
	srv.inflight.Add(3)
	if _, err := srv.MaxFlow(s, tt); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("submission over budget returned %v, want ErrOverloaded", err)
	}
	if st := srv.Stats(); st.Rejected != 1 || st.Queries != 0 {
		t.Fatalf("stats after shed: %+v", st)
	}
	srv.inflight.Add(-3)

	res, err := srv.MaxFlow(s, tt)
	if err != nil || res.Value <= 0 {
		t.Fatalf("submission within budget: %v, %+v", err, res)
	}
	if got := srv.inflight.Load(); got != 0 {
		t.Fatalf("inflight leaked: %d", got)
	}
}

// TestServerServesDuringUpdates drives queries through the server while
// capacity and topology updates publish new epochs underneath; every
// query must succeed, and the epoch cursor must advance through the
// stats endpoint.
func TestServerServesDuringUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := randomConnectedGraph(40, rng)
	n := g.N()
	r, err := NewRouter(g, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(r, ServeOptions{})
	seq0 := srv.Stats().EpochSeq

	stop := make(chan struct{})
	queryErr := make(chan error, 2)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
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
				res, err := srv.MaxFlow(qrng.Intn(n/2), n/2+qrng.Intn(n/2))
				if err != nil {
					queryErr <- err
					return
				}
				if res.Value <= 0 {
					queryErr <- errors.New("non-positive flow value")
					return
				}
			}
		}(int64(200 + w))
	}

	urng := rand.New(rand.NewSource(24))
	for i := 0; i < 4; i++ {
		if i%2 == 0 {
			u, v := urng.Intn(n), urng.Intn(n)
			if u == v {
				v = (u + 1) % n
			}
			if _, err := srv.UpdateTopology([]TopoEdit{AddEdgeEdit(u, v, 1+urng.Int63n(9))}); err != nil {
				t.Errorf("topology update %d: %v", i, err)
			}
		} else {
			if _, err := srv.UpdateCapacities(randomEdits(g, urng)); err != nil {
				t.Errorf("capacity update %d: %v", i, err)
			}
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-queryErr:
		t.Fatalf("query during updates: %v", err)
	default:
	}
	// The two topology adds are always effective; capacity batches may
	// coalesce to no-ops, which deliberately do not publish.
	if seq := srv.Stats().EpochSeq; seq < seq0+2 {
		t.Errorf("epoch cursor did not advance: %d → %d", seq0, seq)
	}
}
