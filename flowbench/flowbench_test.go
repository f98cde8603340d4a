package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"distflow"
	"distflow/internal/graph"
)

func TestTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed: summarize must sort
		}
		return xs
	}
	l := summarize(seq(40), 75)
	if l.MedianOnly || l.Tail != 30 || l.TailBeyond != 10 || l.TailPct != 75 {
		t.Fatalf("n=40 p75: got %+v, want the 30th value with 10 beyond", l)
	}
	if l.P50 != 20.5 {
		t.Fatalf("n=40: median %v, want 20.5", l.P50)
	}
	if l.TailMean != 35.5 {
		t.Fatalf("n=40: tail mean %v, want 35.5, the mean of the 10 samples beyond p75", l.TailMean)
	}
	l = summarize(seq(200), 90)
	if l.MedianOnly || l.Tail != 180 || l.TailBeyond != 20 || l.TailPct != 90 {
		t.Fatalf("n=200 p90: got %+v, want the 180th value with 20 beyond", l)
	}
	// Too few samples for the workload's percentile: the highest one
	// with ten beyond it.
	l = summarize(seq(30), 75)
	if l.MedianOnly || l.Tail != 20 || l.TailBeyond != 10 {
		t.Fatalf("n=30 p75: got %+v, want the 20th value with 10 beyond", l)
	}
	l = summarize(seq(20), 90)
	if l.MedianOnly || l.Tail != 10 || l.TailBeyond != 10 || l.TailPct != 50 {
		t.Fatalf("n=20 p90: got %+v, want the 10th value with 10 beyond", l)
	}
	// Fewer than twenty samples: median only, and the tail mean is the
	// mean of the upper half (the median itself for one sample).
	for n, mean := range map[int]float64{19: 15, 7: 6, 1: 1} {
		l = summarize(seq(n), 75)
		if !l.MedianOnly || l.Tail != l.P50 || l.TailPct != 50 || l.TailMean != mean {
			t.Fatalf("n=%d: got %+v, want the median-only fallback with tail mean %v", n, l, mean)
		}
	}
	if l := summarize(nil, 75); !l.MedianOnly || l.N != 0 {
		t.Fatalf("empty: got %+v", l)
	}
}

func TestFailedFracCountsErrorsAndRejections(t *testing.T) {
	var rep Report
	run := ServeRun{
		Requests: []served{
			{res: &distflow.Result{}},
			{err: fmt.Errorf("wrapped: %w", distflow.ErrOverloaded)},
			{err: distflow.ErrDraining},
			{res: &distflow.Result{}},
			{res: &distflow.Result{Degraded: true}}, // no call carries a deadline
		},
		Updates: []updated{{res: &distflow.UpdateResult{}}, {err: errors.New("update failed")}},
	}
	tallyServe(&rep, run)
	if rep.Tally.Attempted != 7 || rep.Tally.Failed != 4 {
		t.Fatalf("tally %+v, want 4 failed of 7", rep.Tally)
	}
	if got := rep.Tally.Frac(); got != 4.0/7 {
		t.Fatalf("failed_frac %v, want 4/7", got)
	}
	// Rejections, errors and degraded answers are failures, but the
	// answers given are still correct.
	if res := result([]*Report{&rep}); !res.Correct || res.Failed != 4 {
		t.Fatalf("result %+v, want correct with 4 failed", res)
	}
	// A failed correctness check is a failure too, and makes the run
	// incorrect.
	rep.Tally.Check(errors.New("check failed"))
	if rep.Tally.Attempted != 8 || rep.Tally.Failed != 5 {
		t.Fatalf("tally %+v after a failed check", rep.Tally)
	}
	res := result([]*Report{&rep})
	if res.Correct || res.Failed != 5 || res.Attempted != 8 {
		t.Fatalf("result %+v, want incorrect with 5 of 8 failed", res)
	}
}

// smallInstance is a connected graph with an answer from the library.
func smallInstance(t *testing.T) (*distflow.Graph, Pair, *distflow.Result, int64) {
	t.Helper()
	g, err := makeGraph("grid", 0)
	if err != nil {
		t.Fatal(err)
	}
	G := publicGraph(g)
	p := Pair{0, G.N() - 1}
	res, err := distflow.MaxFlow(G, p.S, p.T, distflow.Options{Epsilon: Epsilon})
	if err != nil {
		t.Fatal(err)
	}
	exact, _ := distflow.ExactMaxFlow(G, p.S, p.T)
	return G, p, res, exact
}

// The gate must accept a real answer and reject every corruption of it.
func TestCorruptedFlowTripsGate(t *testing.T) {
	G, p, res, exact := smallInstance(t)
	if _, err := checkFlow(G, p.S, p.T, res.Value, res.Flow, exact, 1+Epsilon); err != nil {
		t.Fatalf("genuine answer rejected: %v", err)
	}
	busiest := 0
	for e, f := range res.Flow {
		if math.Abs(f) > math.Abs(res.Flow[busiest]) {
			busiest = e
		}
	}
	_, _, c := G.EdgeEndpoints(busiest)
	corrupt := map[string]func(f []float64) ([]float64, float64){
		"over capacity": func(f []float64) ([]float64, float64) {
			f[busiest] = float64(c) * 1.01
			return f, res.Value
		},
		"conservation": func(f []float64) ([]float64, float64) {
			f[busiest] += 1e-3
			return f, res.Value
		},
		"value above exact": func(f []float64) ([]float64, float64) {
			return f, float64(exact) * 1.01
		},
		"value far below exact": func(f []float64) ([]float64, float64) {
			for e := range f {
				f[e] /= 2 * (1 + Epsilon)
			}
			return f, res.Value / (2 * (1 + Epsilon))
		},
		"truncated": func(f []float64) ([]float64, float64) {
			return f[:len(f)-1], res.Value
		},
		"NaN": func(f []float64) ([]float64, float64) {
			f[0] = math.NaN()
			return f, res.Value
		},
	}
	for name, fn := range corrupt {
		flow, value := fn(append([]float64(nil), res.Flow...))
		if _, err := checkFlow(G, p.S, p.T, value, flow, exact, 1+Epsilon); err == nil {
			t.Errorf("%s: corrupted answer passed the gate", name)
		}
	}
	// Through the report path: the failed check is counted.
	rep := &Report{}
	bad := *res
	bad.Flow = append([]float64(nil), res.Flow...)
	bad.Flow[busiest] = float64(c) * 2
	checkAnswer(rep, G, p, &bad)
	if rep.Tally.Failed != 1 || rep.Tally.Attempted != 1 || rep.Tally.ChecksFailed != 1 {
		t.Fatalf("tally %+v, want the corrupted answer counted as a failed check", rep.Tally)
	}
}

func TestInputsDeterministic(t *testing.T) {
	for _, fam := range []string{"gnp", "grid"} {
		a, _ := makeGraph(fam, 3)
		b, _ := makeGraph(fam, 3)
		c, _ := makeGraph(fam, 4)
		if !reflect.DeepEqual(a.Edges(), b.Edges()) {
			t.Fatalf("%s: same pool index, different graphs", fam)
		}
		if reflect.DeepEqual(a.Edges(), c.Edges()) {
			t.Fatalf("%s: different pool indices, same graph", fam)
		}
	}
	if !reflect.DeepEqual(newPairStream(2500, 7).Take(50), newPairStream(2500, 7).Take(50)) {
		t.Fatal("same seed, different pairs")
	}
	if reflect.DeepEqual(newPairStream(2500, 7).Take(50), newPairStream(2500, 8).Take(50)) {
		t.Fatal("different seeds, same pairs")
	}
	seen := map[Pair]bool{}
	for _, p := range newPairStream(30, 1).Take(200) {
		k := Pair{min(p.S, p.T), max(p.S, p.T)}
		if p.S == p.T || seen[k] {
			t.Fatalf("pair %v repeats or is degenerate", p)
		}
		seen[k] = true
	}
	if !reflect.DeepEqual(pairPool(2500, 40), pairPool(2500, 40)) || !reflect.DeepEqual(pairPool(2500, 40)[:10], pairPool(2500, 10)) {
		t.Fatal("pair pool not fixed, or not a prefix of a longer one")
	}
	if !reflect.DeepEqual(queryOrder(40, 7), queryOrder(40, 7)) || reflect.DeepEqual(queryOrder(40, 7), queryOrder(40, 8)) {
		t.Fatal("query order is not a function of the seed")
	}
	sent := make([]bool, 40)
	for _, k := range queryOrder(40, 7) {
		sent[k] = true
	}
	if slices.Contains(sent, false) {
		t.Fatal("query order leaves out pool pairs")
	}
	pa := makeServePlan(2500, 12459, 7, 20*time.Second)
	pb := makeServePlan(2500, 12459, 7, 20*time.Second)
	if !reflect.DeepEqual(pa, pb) {
		t.Fatal("same seed, different serving plans")
	}
	if reflect.DeepEqual(pa, makeServePlan(2500, 12459, 8, 20*time.Second)) {
		t.Fatal("different seeds, same serving plan")
	}
	if len(pa.Requests) != int(20*serveRate) || len(pa.Updates) != 4 {
		t.Fatalf("plan has %d requests and %d updates", len(pa.Requests), len(pa.Updates))
	}
	hot := map[Pair]bool{}
	for _, p := range pa.Hot {
		hot[p] = true
	}
	fresh := 0
	for _, r := range pa.Requests {
		if !hot[r.Pair] {
			fresh++
		}
	}
	if want := int(math.Round(float64(len(pa.Requests)) * serveFreshShare)); fresh != want {
		t.Fatalf("%d fresh requests, want %d", fresh, want)
	}
}

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]MetricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(d.Name) {
			t.Errorf("metric name %q does not match %s", d.Name, metricName)
		}
		if seen[d.Name] {
			t.Errorf("metric %q defined twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %q: better = %q", d.Name, d.Better)
		}
		if d.Unit == "" || len(d.Unit) > 16 {
			t.Errorf("metric %q: unit %q", d.Name, d.Unit)
		}
	}
	for _, ph := range queryPhases {
		if !seen["congest.rounds."+ph] {
			t.Errorf("query phase %q has no metric", ph)
		}
	}
	for _, w := range workloads {
		if !metricName.MatchString(w.Name) {
			t.Errorf("workload name %q", w.Name)
		}
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// BENCHMARK.json must describe exactly the workloads and metrics the
// benchmark defines.
func TestBenchmarkFileMatchesDefinitions(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	var b benchmarkFile
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	var gated []Workload
	for _, w := range workloads {
		if w.Gated {
			gated = append(gated, w)
		}
	}
	if len(b.Workloads) != len(gated) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark gates %d", len(b.Workloads), len(gated))
	}
	for i, w := range gated {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: file has %+v, benchmark %q: %q", i, b.Workloads[i], w.Name, w.Why)
		}
	}
	if b.RunSeconds != runSeconds || !reflect.DeepEqual(b.Command, []string{"bash", "flowbench/run.sh"}) || !reflect.DeepEqual(b.Paths, []string{"flowbench"}) {
		t.Errorf("command %v, paths %v, run_seconds %d", b.Command, b.Paths, b.RunSeconds)
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		m := b.EndToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end %d: file has %+v, benchmark %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(b.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		m := b.PerLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: file has %+v, benchmark %+v", i, m, d)
		}
	}
}

func TestResultShape(t *testing.T) {
	rep := newReport(workloads[0], 1, false)
	for _, d := range endToEnd {
		rep.Metrics[d.Name] = 1.5
	}
	rep.Tally.Op(nil)
	var got map[string]json.RawMessage
	if err := json.Unmarshal([]byte(result([]*Report{rep}).JSON()), &got); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range got {
		keys = append(keys, k)
	}
	if want := []string{"attempted", "correct", "failed", "metrics"}; !reflect.DeepEqual(sortedKeys(got), want) {
		t.Fatalf("result keys %v, want %v", keys, want)
	}
	var metrics map[string]MetricValue
	if err := json.Unmarshal(got["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(endToEnd) || metrics["setup_s"].Unit != "s" {
		t.Fatalf("metrics %v", metrics)
	}
	if miss := rep.missing(); len(miss) != 0 {
		t.Fatalf("missing %v", miss)
	}
	// An unmeasured metric fails the run and still yields valid JSON.
	rep.Metrics["latency_p50_s"] = math.NaN()
	if miss := rep.missing(); len(miss) != 1 {
		t.Fatalf("missing %v, want latency_p50_s", miss)
	}
	if err := json.Unmarshal([]byte(result([]*Report{rep}).JSON()), &got); err != nil {
		t.Fatal(err)
	}
}

// fillLayers zero-fills only what a workload does not exercise: the
// serving metrics on a closed loop. Any other per-layer metric a run
// failed to set stays missing, and so fails the run.
func TestFillLayersOnlyUnexercised(t *testing.T) {
	closed, serve := workloads[0], workloads[2]
	if closed.Serve || !serve.Serve {
		t.Fatal("workload table order changed")
	}
	rep := newReport(closed, 1, true)
	fillLayers(rep, closed)
	miss := map[string]bool{}
	for _, name := range rep.missing() {
		miss[name] = true
	}
	for _, d := range perLayer {
		serving := d.On == "serve-mixed"
		if _, filled := rep.Metrics[d.Name]; filled != serving || miss[d.Name] == serving {
			t.Errorf("%s (serving %v): filled %v, missing %v", d.Name, serving, filled, miss[d.Name])
		}
	}
	rep = newReport(serve, 1, true)
	fillLayers(rep, serve)
	if len(rep.Metrics) != 0 || len(rep.missing()) != len(perLayer) {
		t.Fatalf("serve-mixed: filled %v; every per-layer metric must be measured", rep.Metrics)
	}
}

// The benchmark's calls carry no deadline (a deadline lowers the
// solver's escalation cap), only a cancellation at opCap.
func TestCapCtxHasNoDeadline(t *testing.T) {
	ctx, cancel := capCtx()
	if _, ok := ctx.Deadline(); ok {
		t.Fatal("capCtx carries a deadline")
	}
	if ctx.Err() != nil {
		t.Fatal("capCtx cancelled early")
	}
	cancel()
	if ctx.Err() == nil {
		t.Fatal("cancel did not cancel")
	}
}

func TestSelfTime(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "query", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past the parent
	}
	self := selfTimes(spans)
	if got, want := self[1], float64(100-50-10)/1e9; math.Abs(got-want) > 1e-18 {
		t.Fatalf("self time %v, want %v", got, want)
	}
	if self[2] != 30e-9 {
		t.Fatalf("leaf self time %v", self[2])
	}
}

// The tracer is a no-op when nil, so untraced runs record nothing.
func TestNilTracer(t *testing.T) {
	var tr *Tracer
	id := tr.Begin("x", 0)
	tr.End(id)
	tr.Do("y", id, func() {})
	if tr.Spans() != nil || tr.Dur(id) != 0 {
		t.Fatal("nil tracer recorded something")
	}
}

// flowbench/spec.json documents the definitions the benchmark runs
// with, next to the recorded baseline.
func TestSpecMatchesDefinitions(t *testing.T) {
	raw, err := os.ReadFile("spec.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Definitions json.RawMessage `json:"definitions"`
		Baseline    json.RawMessage `json:"baseline"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var got, want any
	if err := json.Unmarshal(spec.Definitions, &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(specDefinitions()), &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("spec.json definitions differ from the benchmark's; regenerate them with --spec")
	}
	if len(spec.Baseline) == 0 {
		t.Fatal("spec.json has no baseline")
	}
}

// A short serving load on a small router, traced, exercises the
// generator, updater and request goroutines and the shared tracer
// together (run with -race).
func TestServeLoadConcurrent(t *testing.T) {
	w := workloads[0]
	rng := rand.New(rand.NewSource(1))
	g := graph.CapUniform(graph.GNP(200, 0.04, rng), 64, rng)
	G := publicGraph(g)
	r, err := distflow.NewRouter(G, w.options())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	in := instance{g: g, G: G, r: r}
	window := 5 * time.Second
	plan := makeServePlan(G.N(), G.M(), 1, window)
	tr := NewTracer()
	run := serveLoad(newServer(r), plan, window, tr)
	rep := &Report{Metrics: map[string]float64{}}
	tallyServe(rep, run)
	if rep.Tally.Failed != 0 || len(run.Requests) == 0 || len(run.Updates) == 0 {
		t.Fatalf("tally %+v over %d requests and %d updates", rep.Tally, len(run.Requests), len(run.Updates))
	}
	if got := len(durations(tr.Spans(), "request")); got != len(run.Requests) {
		t.Fatalf("%d request spans for %d requests", got, len(run.Requests))
	}
	quiesced(rep, in, plan)
	if rep.Tally.ChecksFailed != 0 {
		t.Fatalf("quiesced checks failed: %v", rep.Tally.Reasons)
	}
}
