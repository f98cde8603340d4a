package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
)

// MetricDef describes one reported metric. The tables below are the
// benchmark's single definition of its metrics; BENCHMARK.json and
// spec.json mirror them and the self-tests keep them in step.
type MetricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound (end-to-end only) is the share of the parent's median by
	// which the metric may get worse before a change is rejected.
	Bound float64
	// Closed and Served (end-to-end only) name what the metric measures
	// on the closed-loop workloads and on serve-mixed.
	Closed, Served string
	// Moves and On (per-layer only): the end-to-end metric the layer
	// metric should move, and the workload where it should show.
	Moves, On string
}

// endToEnd metrics are what a user of the library sees. Every workload
// reports every one of them; on serve-mixed the latency and throughput
// metrics are the served requests' and the round/ratio metrics come
// from the quiesced sample on the final graph.
var endToEnd = []MetricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		Closed: "NewRouter wall time, median of the builds in one run (at least 16, every graph of the run built equally often)", Served: "same"},
	{Name: "heap_mb", Unit: "MB", Better: "lower", Bound: 0.1,
		Closed: "live heap with the run's routers after set-up and a forced GC", Served: "same"},
	{Name: "latency_p50_s", Unit: "s", Better: "lower", Bound: 0.25,
		Closed: "query_p50_s: median Router.MaxFlowCtx latency", Served: "serve_p50_s: median latency from each request's due time"},
	{Name: "latency_tail_s", Unit: "s", Better: "lower", Bound: 0.25,
		Closed: "query_tail_s: mean latency of the samples beyond the workload's tail percentile, which is lowered when fewer than 10 lie beyond it", Served: "serve_tail_s: same rule, from due time"},
	{Name: "throughput_qps", Unit: "1/s", Better: "higher", Bound: 0.25,
		Closed: "queries_per_s: answered queries per second of summed query time, over the whole pool", Served: "serve_goodput_qps: answers neither rejected nor degraded within the latency limit, per second"},
	{Name: "query_rounds", Unit: "rounds", Better: "lower", Bound: 0.25,
		Closed: "median Result.Rounds - ConstructionRounds() over the pool's answers", Served: "same, over the quiesced sample on the final graph"},
	{Name: "approx_ratio", Unit: "ratio", Better: "lower", Bound: 0.02,
		Closed: "worst Dinic-exact value / returned value over the pool's answers", Served: "same, over the quiesced sample on the final graph"},
}

// perLayer metrics come from the traced run.
var perLayer = []MetricDef{
	{Name: "distflow.router_self_s", Unit: "s", Better: "lower", Moves: "latency_p50_s", On: "gnp-cold"},
	{Name: "distflow.warm_hit_frac", Unit: "ratio", Better: "higher", Moves: "latency_p50_s,throughput_qps", On: "serve-mixed"},
	{Name: "distflow.escalations_per_query", Unit: "count", Better: "lower", Moves: "query_rounds", On: "grid-deep"},
	{Name: "distflow.epochs_pinned", Unit: "count", Better: "lower", Moves: "heap_mb", On: "serve-mixed"},
	{Name: "distflow.update_dirty_trees", Unit: "count", Better: "higher", Moves: "cap_update_p50_s,topo_update_p50_s", On: "serve-mixed"},
	{Name: "distflow.update_swept_trees", Unit: "count", Better: "lower", Moves: "cap_update_p50_s,topo_update_p50_s", On: "serve-mixed"},
	{Name: "distflow.update_resampled_trees", Unit: "count", Better: "lower", Moves: "topo_update_p50_s", On: "serve-mixed"},
	{Name: "distflow.update_rebuilds", Unit: "count", Better: "lower", Moves: "cap_update_p50_s,topo_update_p50_s", On: "serve-mixed"},
	{Name: "distflow.cap_update_s", Unit: "s", Better: "lower", Moves: "cap_update_p50_s", On: "serve-mixed"},
	{Name: "distflow.topo_update_s", Unit: "s", Better: "lower", Moves: "topo_update_p50_s", On: "serve-mixed"},
	{Name: "serve.coalesced_frac", Unit: "ratio", Better: "higher", Moves: "latency_tail_s,throughput_qps", On: "serve-mixed"},
	{Name: "serve.batch_pairs", Unit: "count", Better: "higher", Moves: "latency_tail_s,throughput_qps", On: "serve-mixed"},
	{Name: "serve.rejected_overload", Unit: "count", Better: "lower", Moves: "throughput_qps,failed_frac", On: "serve-mixed"},
	{Name: "serve.rejected_draining", Unit: "count", Better: "lower", Moves: "throughput_qps,failed_frac", On: "serve-mixed"},
	{Name: "serve.rejected_deadline", Unit: "count", Better: "lower", Moves: "throughput_qps,failed_frac", On: "serve-mixed"},
	{Name: "serve.rejected_validation", Unit: "count", Better: "lower", Moves: "throughput_qps,failed_frac", On: "serve-mixed"},
	{Name: "serve.rejected_panic", Unit: "count", Better: "lower", Moves: "throughput_qps,failed_frac", On: "serve-mixed"},
	{Name: "serve.generator_lag_s", Unit: "s", Better: "lower", Moves: "latency_tail_s", On: "serve-mixed"},
	{Name: "sherman.solve_s", Unit: "s", Better: "lower", Moves: "latency_p50_s", On: "grid-deep"},
	{Name: "sherman.iterations_per_query", Unit: "count", Better: "lower", Moves: "latency_p50_s,query_rounds", On: "grid-deep"},
	{Name: "sherman.restarts_per_query", Unit: "count", Better: "lower", Moves: "latency_p50_s,query_rounds", On: "grid-deep"},
	{Name: "sherman.outer_per_query", Unit: "count", Better: "lower", Moves: "latency_p50_s,query_rounds", On: "grid-deep"},
	{Name: "sherman.alpha_used", Unit: "ratio", Better: "lower", Moves: "latency_p50_s,query_rounds", On: "grid-deep"},
	{Name: "sherman.residual_route_s", Unit: "s", Better: "lower", Moves: "latency_p50_s", On: "gnp-cold"},
	{Name: "numutil.softmax_s", Unit: "s", Better: "lower", Moves: "latency_p50_s", On: "gnp-cold"},
	{Name: "graph.divergence_s", Unit: "s", Better: "lower", Moves: "latency_p50_s", On: "gnp-cold"},
	{Name: "capprox.potential_rt_s", Unit: "s", Better: "lower", Moves: "latency_p50_s", On: "gnp-cold"},
	{Name: "capprox.norm_rb_s", Unit: "s", Better: "lower", Moves: "latency_p50_s", On: "gnp-cold"},
	{Name: "capprox.build_s", Unit: "s", Better: "lower", Moves: "setup_s", On: "all"},
	{Name: "capprox.sample_s", Unit: "s", Better: "lower", Moves: "setup_s", On: "all"},
	{Name: "capprox.race_s", Unit: "s", Better: "lower", Moves: "setup_s", On: "all"},
	{Name: "capprox.cutcap_s", Unit: "s", Better: "lower", Moves: "setup_s", On: "all"},
	{Name: "capprox.alpha_s", Unit: "s", Better: "lower", Moves: "setup_s", On: "all"},
	{Name: "capprox.trees", Unit: "count", Better: "lower", Moves: "setup_s,latency_p50_s", On: "all"},
	{Name: "capprox.alpha", Unit: "ratio", Better: "lower", Moves: "setup_s,latency_p50_s", On: "all"},
	{Name: "shard.rounds_per_iter", Unit: "rounds", Better: "lower", Moves: "latency_p50_s", On: "gnp-shard2"},
	{Name: "shard.messages_per_iter", Unit: "count", Better: "lower", Moves: "latency_p50_s", On: "gnp-shard2"},
	{Name: "shard.bytes_per_iter", Unit: "B", Better: "lower", Moves: "latency_p50_s", On: "gnp-shard2"},
	{Name: "shard.softmax_s", Unit: "s", Better: "lower", Moves: "latency_p50_s", On: "gnp-shard2"},
	{Name: "shard.residual_s", Unit: "s", Better: "lower", Moves: "latency_p50_s", On: "gnp-shard2"},
	{Name: "shard.potential_rt_s", Unit: "s", Better: "lower", Moves: "latency_p50_s", On: "gnp-shard2"},
	{Name: "shard.gradient_delta_s", Unit: "s", Better: "lower", Moves: "latency_p50_s", On: "gnp-shard2"},
	{Name: "shard.overhead_ratio", Unit: "ratio", Better: "lower", Moves: "latency_p50_s", On: "gnp-shard2"},
	{Name: "congest.rounds.gradient", Unit: "rounds", Better: "lower", Moves: "query_rounds", On: "gnp-cold,grid-deep"},
	{Name: "congest.rounds.norm-rb", Unit: "rounds", Better: "lower", Moves: "query_rounds", On: "gnp-shard2"},
	{Name: "congest.rounds.residual-tree-routing", Unit: "rounds", Better: "lower", Moves: "query_rounds", On: "gnp-cold,grid-deep"},
	{Name: "congest.construction_rounds", Unit: "rounds", Better: "lower", Moves: "query_rounds", On: "all"},
	{Name: "runtime.alloc_mb_per_query", Unit: "MB", Better: "lower", Moves: "latency_p50_s,heap_mb", On: "gnp-cold"},
	{Name: "runtime.gc_per_query", Unit: "count", Better: "lower", Moves: "latency_p50_s,heap_mb", On: "gnp-cold"},
	{Name: "trace.overhead_s", Unit: "s", Better: "lower", Moves: "none: traced minus untraced Router.MaxFlow (closed) or request (serve) median", On: "all"},
}

// queryPhases are the CONGEST ledger phases a query charges; each has
// a congest.rounds.<phase> metric.
var queryPhases = []string{"gradient", "norm-rb", "residual-tree-routing"}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// Line is one human-readable report line: a metric or a derived figure
// shown by name and unit but not part of the JSON result.
type Line struct {
	Name  string
	Value float64
	Unit  string
	Note  string
}

// Report is the outcome of one workload run.
type Report struct {
	Workload string
	Seed     int64
	Traced   bool
	Lines    []Line // shown in order
	Metrics  map[string]float64
	Tally    Tally
	Notes    []string
	Spans    []Span // traced runs only
}

func newReport(w Workload, seed int64, traced bool) *Report {
	return &Report{Workload: w.Name, Seed: seed, Traced: traced, Metrics: map[string]float64{}}
}

// set records a JSON metric (and shows it).
func (r *Report) set(name string, v float64, note string) {
	r.Metrics[name] = v
	r.Lines = append(r.Lines, Line{Name: name, Value: v, Unit: unitOf(name), Note: note})
}

// show adds a human-only line.
func (r *Report) show(name string, v float64, unit, note string) {
	r.Lines = append(r.Lines, Line{Name: name, Value: v, Unit: unit, Note: note})
}

func (r *Report) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func unitOf(name string) string {
	for _, d := range append(append([]MetricDef(nil), endToEnd...), perLayer...) {
		if d.Name == name {
			return d.Unit
		}
	}
	return "?"
}

// expected returns the metric set a run must report: every end-to-end
// metric untraced, every per-layer metric traced.
func expected(traced bool) []MetricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// missing lists expected metrics the report lacks or holds as NaN.
func (r *Report) missing() []string {
	var out []string
	for _, d := range expected(r.Traced) {
		if v, ok := r.Metrics[d.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			out = append(out, d.Name)
		}
	}
	return out
}

func (r *Report) print(w io.Writer) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (seed %d, %s)\n", r.Workload, r.Seed, mode)
	layer := map[string]bool{}
	if r.Traced {
		for _, d := range perLayer {
			layer[d.Name] = true
		}
	}
	for _, l := range r.Lines {
		if !layer[l.Name] {
			fmt.Fprintf(w, "  %-38s %14.6g %-7s %s\n", l.Name, l.Value, l.Unit, l.Note)
		}
	}
	if r.Traced {
		layerMap(w, r)
		fmt.Fprintf(w, "  spans (name, count, total s, self s, median s):\n")
		for _, s := range summarizeSpans(r.Spans) {
			fmt.Fprintf(w, "    %-40s %6d %12.6f %12.6f %12.6g\n", s.Name, s.Count, s.TotalS, s.SelfS, s.MedianS)
		}
	}
	fmt.Fprintf(w, "  %-38s %14.6g %-7s %d failed of %d attempted (%d failed checks)\n", "failed_frac", r.Tally.Frac(), "ratio", r.Tally.Failed, r.Tally.Attempted, r.Tally.ChecksFailed)
	for _, reason := range r.Tally.Reasons {
		fmt.Fprintf(w, "  FAILED: %s\n", reason)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// Result is the JSON object printed as the last line of stdout.
type Result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]MetricValue `json:"metrics"`
}

type MetricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result assembles the JSON result of reports. With one report the
// metric names are bare; with several (--workload all) each is
// prefixed by its workload.
func result(reports []*Report) Result {
	res := Result{Correct: true, Metrics: map[string]MetricValue{}}
	checksFailed := 0
	for _, r := range reports {
		res.Attempted += r.Tally.Attempted
		res.Failed += r.Tally.Failed
		checksFailed += r.Tally.ChecksFailed
		for _, d := range expected(r.Traced) {
			name := d.Name
			if len(reports) > 1 {
				name = r.Workload + "." + name
			}
			v := r.Metrics[d.Name]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0 // reported by missing() as a failed check; JSON has no NaN
			}
			res.Metrics[name] = MetricValue{Value: v, Unit: d.Unit}
		}
	}
	res.Correct = checksFailed == 0 && res.Attempted > 0
	return res
}

func (res Result) JSON() string {
	b, err := json.Marshal(res)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// layerMap prints each per-layer metric with the end-to-end metric it
// should move and the workload where it should show.
func layerMap(w io.Writer, r *Report) {
	fmt.Fprintf(w, "  per-layer metric -> end-to-end metric it should move (workload where it should show)\n")
	notes := map[string]string{}
	for _, l := range r.Lines {
		notes[l.Name] = l.Note
	}
	for _, d := range perLayer {
		fmt.Fprintf(w, "  %-38s %14.6g %-7s -> %s (%s) %s\n", d.Name, r.Metrics[d.Name], d.Unit, d.Moves, d.On, notes[d.Name])
	}
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// runSeconds is the measured seconds per run BENCHMARK.json asks for.
const runSeconds = 30

// benchmarkJSON renders BENCHMARK.json from the workload and metric
// tables.
func benchmarkJSON() string {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []e2e      `json:"end_to_end"`
		PerLayer   []layer    `json:"per_layer"`
	}{Command: []string{"bash", "flowbench/run.sh"}, Paths: []string{"flowbench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		if w.Gated {
			doc.Workloads = append(doc.Workloads, workload{w.Name, w.Why})
		}
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err)
	}
	return string(b)
}

// specDefinitions renders the definitions part of flowbench/spec.json:
// seeds, workloads with their parameters, the serving parameters, and
// every metric with its meaning or the end-to-end metric it maps to.
func specDefinitions() string {
	type wl struct {
		Name        string  `json:"name"`
		Gated       bool    `json:"gated"`
		Why         string  `json:"why"`
		Family      string  `json:"family"`
		Graphs      int     `json:"graphs_per_run"`
		Shards      int     `json:"shards"`
		PoolRate    float64 `json:"pool_pairs_per_s"`
		Prefix      int     `json:"fingerprint_prefix"`
		TailPct     float64 `json:"tail_percentile"`
		TracePrefix int     `json:"trace_prefix"`
	}
	type e2e struct {
		Name       string  `json:"name"`
		Unit       string  `json:"unit"`
		Better     string  `json:"better"`
		Bound      float64 `json:"bound"`
		ClosedLoop string  `json:"closed_loop"`
		ServeMixed string  `json:"serve_mixed"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
		Moves  string `json:"moves"`
		On     string `json:"on"`
	}
	doc := struct {
		Seeds        map[string]int64   `json:"seeds"`
		Epsilon      float64            `json:"epsilon"`
		OpCapS       float64            `json:"op_cap_s"`
		Workloads    []wl               `json:"workloads"`
		Serve        map[string]float64 `json:"serve"`
		ServeSources map[string]string  `json:"serve_sources"`
		EndToEnd     []e2e              `json:"end_to_end"`
		PerLayer     []layer            `json:"per_layer"`
	}{
		Seeds:   map[string]int64{"default": defaultSeed, "held_out": heldOutSeed},
		Epsilon: Epsilon,
		OpCapS:  opCap.Seconds(),
		Serve: map[string]float64{
			"rate_qps":        serveRate,
			"latency_limit_s": serveLatencyLimit.Seconds(),
			"hot_pairs":       serveHotPairs,
			"zipf_s":          serveZipfS,
			"fresh_share":     serveFreshShare,
			"update_every_s":  serveUpdateEvery.Seconds(),
			"cap_edits":       serveCapEdits,
			"topo_edges":      serveTopoEdges,
			"topo_links":      serveTopoLinks,
		},
		ServeSources: serveSources,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Gated, w.Why, w.Family, w.Graphs, w.Shards,
			w.PoolRate, w.Prefix, w.TailPct, w.TracePrefix})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound, d.Closed, d.Served})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.Name, d.Unit, d.Better, d.Moves, d.On})
	}
	b, err := json.MarshalIndent(doc, "  ", "  ")
	if err != nil {
		panic(err)
	}
	return string(b)
}
