// Command serve runs a long-lived max-flow serving daemon on top of
// the epoch-snapshot Router (DESIGN.md §9, failure contract §11): an
// HTTP JSON front-end with admission control, per-query deadlines with
// graceful degradation, and a scheduler that coalesces concurrent
// repeat (s,t) queries into warm-cache-aware batch solves. Topology
// and capacity updates apply while queries keep being served — each
// update publishes a new epoch; in-flight queries finish against the
// epoch they started on.
//
// The daemon serves a synthetic benchmark graph described by the same
// flags cmd/bench uses (swap in a real topology by constructing the
// graph where the generator is called):
//
//	serve -addr :8080 -n 2500 -deg 8 -cap 64 -seed 3 -eps 0.5 -deadline 750ms
//
// Endpoints:
//
//	POST /maxflow   {"s": 0, "t": 17}
//	  → {"value":..., "iterations":..., "warm_started":...,
//	     "degraded":..., "cert_bound":..., "epoch":...}
//	    A query whose deadline (the X-Deadline-Ms request header, else
//	    -deadline) expires mid-solve returns its best-effort iterate
//	    with "degraded": true and the measured "cert_bound" (value ≥
//	    opt/cert_bound). 503 + Retry-After when admission control or
//	    shutdown draining sheds the query; 504 when the deadline was
//	    too tight to return even a degraded iterate.
//	POST /update/capacities  {"edits": [{"edge": 3, "cap": 9}, ...]}
//	POST /update/topology    {"edits": [
//	      {"op": "add_edge", "u": 1, "v": 2, "cap": 5},
//	      {"op": "delete_edge", "edge": 7},
//	      {"op": "add_vertex", "links": [{"to": 4, "cap": 2}]},
//	      {"op": "remove_vertex", "vertex": 9}]}
//	  → the UpdateResult (α, edit counts, resample/rebuild flags,
//	    assigned vertex/edge ids). An update aborted by client
//	    disconnect publishes nothing (the router discards the fork).
//	GET  /stats
//	  → server counters (queries, coalesced, batches, per-cause
//	    rejections, degraded answers, recovered panics, epoch
//	    retirement), the published epoch sequence number, and α.
//	GET  /healthz
//	  → 200 "ok" while serving, 503 "draining" once shutdown began —
//	    load balancers stop routing here while in-flight queries drain.
//
// Request bodies are capped (4 KiB for /maxflow, 8 MiB for the update
// endpoints): a larger body gets 413, a malformed one 400, and neither
// reaches the router.
//
// Shutdown: SIGINT/SIGTERM flips the server to draining (new queries
// get 503 + Retry-After, /healthz fails), then http.Server.Shutdown
// waits up to -drain-timeout for in-flight queries to finish before
// the process exits.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"distflow"
	"distflow/internal/graph"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		n            = flag.Int("n", 2500, "vertex count of the served graph")
		deg          = flag.Float64("deg", 8, "expected average degree")
		maxCap       = flag.Int64("cap", 64, "maximum edge capacity")
		seed         = flag.Int64("seed", 3, "graph/router PRNG seed")
		epsilon      = flag.Float64("eps", 0.5, "approximation target")
		maxInFlight  = flag.Int("max-inflight", 0, "admission control: concurrent admitted queries (0 = default)")
		maxBatch     = flag.Int("max-batch", 0, "scheduler: distinct pairs per batch solve (0 = default)")
		deadline     = flag.Duration("deadline", 0, "default per-query deadline; expired solves return degraded best-effort answers (0 = none)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "shutdown: how long to wait for in-flight queries")
	)
	flag.Parse()

	rng := rand.New(rand.NewSource(*seed))
	gg := graph.CapUniform(graph.GNP(*n, *deg/float64(*n), rng), *maxCap, rng)
	G := distflow.NewGraph(gg.N())
	for _, e := range gg.Edges() {
		G.AddEdge(e.U, e.V, e.Cap)
	}
	fmt.Printf("serve: building router (n=%d m=%d)...\n", G.N(), G.M())
	start := time.Now()
	r, err := distflow.NewRouter(G, distflow.Options{Epsilon: *epsilon, Seed: *seed})
	if err != nil {
		return err
	}
	fmt.Printf("serve: router ready in %v (alpha=%.3f, %d trees)\n", time.Since(start).Round(time.Millisecond), r.Alpha(), r.Trees())
	srv := distflow.NewServer(r, distflow.ServeOptions{
		MaxInFlight:     *maxInFlight,
		MaxBatch:        *maxBatch,
		DefaultDeadline: *deadline,
	})

	hs := newHTTPServer(*addr, newMux(srv, r, G))
	// Graceful shutdown: on SIGINT/SIGTERM flip to draining (new
	// submissions shed with 503 + Retry-After, /healthz fails so load
	// balancers stop routing), then let Shutdown drain in-flight
	// requests up to -drain-timeout.
	sigCtx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	serveErr := make(chan error, 1)
	go func() {
		fmt.Printf("serve: listening on %s\n", *addr)
		serveErr <- hs.ListenAndServe()
	}()
	select {
	case err := <-serveErr:
		return err
	case <-sigCtx.Done():
	}
	fmt.Println("serve: draining...")
	srv.SetDraining(true)
	shutCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	fmt.Println("serve: drained, bye")
	return nil
}

// Request limits. Bodies beyond the size caps are refused with 413
// before any of them reaches the router; the timeouts stop slow or
// idle clients from pinning connections.
const (
	maxQueryBody      = 4 << 10 // one {"s","t"} pair
	maxUpdateBody     = 8 << 20 // a large update batch
	readHeaderTimeout = 10 * time.Second
	readTimeout       = time.Minute
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer returns the daemon's http.Server with the request
// timeouts set. There is no write timeout: a query's own deadline
// bounds its response time.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// decodeBody decodes req's JSON body, of at most limit bytes, into v.
// On failure it writes the response — 413 for an oversized body, 400
// for a malformed one — and returns false.
func decodeBody(w http.ResponseWriter, req *http.Request, limit int64, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, req.Body, limit)).Decode(v)
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeErr(w, http.StatusRequestEntityTooLarge, err)
	} else {
		writeErr(w, http.StatusBadRequest, err)
	}
	return false
}

// newMux routes the daemon's endpoints to srv (queries and updates)
// over router r and its graph G.
func newMux(srv *distflow.Server, r *distflow.Router, G *distflow.Graph) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /maxflow", func(w http.ResponseWriter, req *http.Request) {
		var q struct{ S, T int }
		if !decodeBody(w, req, maxQueryBody, &q) {
			return
		}
		// Per-query deadline: the X-Deadline-Ms header overrides the
		// -deadline default; the request context also carries client
		// disconnects, so an abandoned request cancels its submission.
		ctx := req.Context()
		if ms := req.Header.Get("X-Deadline-Ms"); ms != "" {
			v, err := strconv.ParseInt(ms, 10, 64)
			if err != nil || v <= 0 {
				writeErr(w, http.StatusBadRequest, fmt.Errorf("bad X-Deadline-Ms %q", ms))
				return
			}
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, time.Duration(v)*time.Millisecond)
			defer cancel()
		}
		res, err := srv.MaxFlowCtx(ctx, q.S, q.T)
		if err != nil {
			switch {
			case errors.Is(err, distflow.ErrOverloaded), errors.Is(err, distflow.ErrDraining):
				w.Header().Set("Retry-After", "1")
				writeErr(w, http.StatusServiceUnavailable, err)
			case errors.Is(err, context.DeadlineExceeded):
				writeErr(w, http.StatusGatewayTimeout, err)
			case errors.Is(err, context.Canceled):
				// Client went away; the status is for logs only.
				writeErr(w, 499, err)
			default:
				writeErr(w, http.StatusUnprocessableEntity, err)
			}
			return
		}
		writeJSON(w, map[string]any{
			"value":        res.Value,
			"iterations":   res.Iterations,
			"warm_started": res.WarmStarted,
			"degraded":     res.Degraded,
			"cert_bound":   res.CertBound,
			"alpha":        res.Alpha,
			"rounds":       res.Rounds,
			"epoch":        r.EpochSeq(),
		})
	})
	mux.HandleFunc("POST /update/capacities", func(w http.ResponseWriter, req *http.Request) {
		var body struct {
			Edits []struct {
				Edge int   `json:"edge"`
				Cap  int64 `json:"cap"`
			} `json:"edits"`
		}
		if !decodeBody(w, req, maxUpdateBody, &body) {
			return
		}
		edits := make([]distflow.CapEdit, len(body.Edits))
		for i, e := range body.Edits {
			edits[i] = distflow.CapEdit{Edge: e.Edge, Cap: e.Cap}
		}
		ur, err := srv.UpdateCapacitiesCtx(req.Context(), edits)
		if err != nil {
			writeUpdateErr(w, err)
			return
		}
		writeUpdate(w, ur, r.EpochSeq())
	})
	mux.HandleFunc("POST /update/topology", func(w http.ResponseWriter, req *http.Request) {
		var body struct {
			Edits []topoEditJSON `json:"edits"`
		}
		if !decodeBody(w, req, maxUpdateBody, &body) {
			return
		}
		edits := make([]distflow.TopoEdit, len(body.Edits))
		for i, e := range body.Edits {
			ed, err := e.toEdit()
			if err != nil {
				writeErr(w, http.StatusBadRequest, fmt.Errorf("edit %d: %w", i, err))
				return
			}
			edits[i] = ed
		}
		ur, err := srv.UpdateTopologyCtx(req.Context(), edits)
		if err != nil {
			writeUpdateErr(w, err)
			return
		}
		writeUpdate(w, ur, r.EpochSeq())
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, req *http.Request) {
		st := srv.Stats()
		writeJSON(w, map[string]any{
			"queries":             st.Queries,
			"coalesced":           st.Coalesced,
			"batches":             st.Batches,
			"rejected":            st.Rejected,
			"rejected_overload":   st.RejectedOverload,
			"rejected_draining":   st.RejectedDraining,
			"rejected_deadline":   st.RejectedDeadline,
			"rejected_validation": st.RejectedValidation,
			"rejected_panic":      st.RejectedPanic,
			"canceled":            st.Canceled,
			"degraded":            st.Degraded,
			"panics":              st.Panics,
			"draining":            st.Draining,
			"epoch":               st.EpochSeq,
			"epochs_retired":      st.EpochsRetired,
			"epochs_drained":      st.EpochsDrained,
			"alpha":               r.Alpha(),
			"n":                   G.ActiveN(),
			"live_m":              G.LiveM(),
		})
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, req *http.Request) {
		if srv.Draining() {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})

	return mux
}

// topoEditJSON is the wire form of one TopoEdit.
type topoEditJSON struct {
	Op     string `json:"op"`
	U      int    `json:"u"`
	V      int    `json:"v"`
	Cap    int64  `json:"cap"`
	Edge   int    `json:"edge"`
	Vertex int    `json:"vertex"`
	Links  []struct {
		To  int   `json:"to"`
		Cap int64 `json:"cap"`
	} `json:"links"`
}

func (e topoEditJSON) toEdit() (distflow.TopoEdit, error) {
	switch e.Op {
	case "add_edge":
		return distflow.AddEdgeEdit(e.U, e.V, e.Cap), nil
	case "delete_edge":
		return distflow.DeleteEdgeEdit(e.Edge), nil
	case "add_vertex":
		links := make([]distflow.Link, len(e.Links))
		for i, l := range e.Links {
			links[i] = distflow.Link{To: l.To, Cap: l.Cap}
		}
		return distflow.AddVertexEdit(links...), nil
	case "remove_vertex":
		return distflow.RemoveVertexEdit(e.Vertex), nil
	default:
		return distflow.TopoEdit{}, fmt.Errorf("unknown op %q", e.Op)
	}
}

func writeUpdate(w http.ResponseWriter, ur *distflow.UpdateResult, epoch uint64) {
	writeJSON(w, map[string]any{
		"alpha":           ur.Alpha,
		"edits":           ur.Edits,
		"rebuilt":         ur.Rebuilt,
		"dirty_trees":     ur.DirtyTrees,
		"swept_trees":     ur.SweptTrees,
		"resampled_trees": ur.ResampledTrees,
		"refreshed_trees": ur.RefreshedTrees,
		"added_vertices":  ur.AddedVertices,
		"added_edges":     ur.AddedEdges,
		"epoch":           epoch,
	})
}

// writeUpdateErr maps an update failure to its HTTP shape: an aborted
// context (client disconnect mid-update) means the router discarded the
// fork — nothing published, safe to retry verbatim.
func writeUpdateErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.Canceled):
		writeErr(w, 499, err)
	case errors.Is(err, context.DeadlineExceeded):
		writeErr(w, http.StatusGatewayTimeout, err)
	default:
		writeErr(w, http.StatusUnprocessableEntity, err)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
