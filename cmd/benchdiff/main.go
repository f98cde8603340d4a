// Command benchdiff compares a freshly produced bench JSON document
// against a committed baseline and fails on regressions of the gated
// fields — the CI bench-regression gate.
//
// Usage:
//
//	benchdiff -baseline BENCH_accel.json -fresh fresh-flow.json \
//	          -out diff-flow.json [-tolerance 0.25]
//
// The comparison is schema-aware: the document's mode ("flow" when
// absent — the schema-2 -flow layout predates the mode field, "build",
// "churn") selects which keys are gated and in which direction. Only
// hardware-independent fields are gated — iteration counts, value
// sums, α, tree counts, drift ratios — because the committed baselines
// were recorded on different hardware than the CI runner; wall-clock
// fields are reported in the diff but never fail the gate. A gated
// field regresses when the fresh value is worse than the baseline by
// more than the tolerance (relative, default 25%; value sums use a
// tight 1% both-ways band since they fingerprint results rather than
// measure cost).
//
// The diff document written to -out lists every gated comparison with
// its verdict plus the ungated informational fields, so a failing run
// uploads exactly the numbers needed to judge it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
)

// direction says which way a gated field may move freely.
type direction int

const (
	up   direction = iota // larger fresh value = regression
	both                  // any relative movement beyond tolerance = regression
)

// gate is one checked field of a mode's document.
type gate struct {
	key string
	dir direction
	// rel overrides the global tolerance when > 0; abs adds slack for
	// near-zero baselines.
	rel float64
	abs float64
}

// gatesByMode maps document mode → gated fields. Wall-clock seconds
// are deliberately absent (hardware-dependent); speedup ratios of the
// churn mode are gated downward via churn_max_value_err only — the
// ratio itself moves with runner core counts.
var gatesByMode = map[string][]gate{
	"flow": {
		{key: "iterations", dir: up},
		{key: "value_sum", dir: both, rel: 0.01},
		{key: "repeat_iterations", dir: up, abs: 8},
	},
	"build": {
		{key: "iterations", dir: up},
		{key: "alpha", dir: up},
		{key: "trees", dir: both, rel: 1e-9},
		{key: "value_sum", dir: both, rel: 0.01},
		{key: "update_max_value_err", dir: up, abs: 0.002},
	},
	"churn": {
		{key: "alpha", dir: up},
		{key: "value_sum_updated", dir: both, rel: 0.01},
		{key: "churn_max_value_err", dir: up, abs: 0.002},
		{key: "escalations", dir: up, abs: 4},
		{key: "resampled_trees_total", dir: up, abs: 26},
	},
	// The scale document is a flat per-rung map (keys suffixed _n{n}).
	// Wall-clock and memory keys are hardware-dependent and ungated.
	// The gates are the hardware-independent per-rung fingerprints of
	// the rungs the committed baseline climbs (n ≤ 10⁵); keys of rungs
	// beyond the fresh run's -scale-max-n are absent and reported as
	// skipped.
	"scale": {
		{key: "m_n10000", dir: both, rel: 1e-9},
		{key: "m_n100000", dir: both, rel: 1e-9},
		{key: "alpha_n10000", dir: up},
		{key: "alpha_n100000", dir: up},
		{key: "trees_n10000", dir: both, rel: 1e-9},
		{key: "trees_n100000", dir: both, rel: 1e-9},
		{key: "value_sum_n10000", dir: both, rel: 0.01},
		{key: "iterations_n10000", dir: up},
	},
	// The shard document is a flat map like scale (per-rung `_n{n}`
	// keys, per-shard-count `_p{p}_n{n}` keys). Everything gated is
	// exactly reproducible on any hardware: the superstep count is a
	// function of the operator sequence and tree heights, and the
	// message/byte totals of the P-sweep are functions of (graph, P)
	// alone — the engine counts nonempty cross-shard payloads, never
	// timing. Wall-clock `seconds_p*` keys stay info-only. The committed
	// BENCH_shard.json climbs the n=10⁴ rung only, so the gates name
	// n10000 keys; the n=10⁵ evidence rows live in DESIGN.md §13.
	"shard": {
		{key: "m_n10000", dir: both, rel: 1e-9},
		{key: "value_sum_n10000", dir: both, rel: 0.01},
		{key: "iterations_n10000", dir: up},
		{key: "measured_rounds_n10000", dir: up},
		{key: "messages_p2_n10000", dir: up},
		{key: "messages_p4_n10000", dir: up},
		{key: "messages_p8_n10000", dir: up},
		{key: "bytes_p4_n10000", dir: up},
		{key: "bytes_p8_n10000", dir: up},
	},
	// qps and the latency quantiles of the serve document are wall-clock
	// metrics and deliberately ungated; the drift fingerprint and value
	// sums are pure functions of (seed, churn schedule) — the serve bench
	// disables the warm cache precisely so these stay gateable.
	// Of the schema-8 chaos fields only the two deterministic fault
	// counts are gated: the panic probe fires exactly once and the
	// injected resample schedule (Every=3 over a fixed batch count) drops
	// a fixed number of churn batches regardless of hardware. Deadline
	// hit rate, degraded counts, and certificate bounds are
	// timing-dependent and stay info-only.
	"serve": {
		{key: "alpha", dir: up},
		{key: "value_sum_served", dir: both, rel: 0.01},
		{key: "value_sum_rebuilt", dir: both, rel: 0.01},
		{key: "serve_max_value_err", dir: up, abs: 0.002},
		{key: "escalations", dir: up, abs: 4},
		{key: "serve_panics", dir: both, rel: 1e-9},
		{key: "serve_injected_update_failures", dir: both, rel: 1e-9},
	},
}

// comparison is one row of the diff document.
type comparison struct {
	Key       string  `json:"key"`
	Baseline  float64 `json:"baseline"`
	Fresh     float64 `json:"fresh"`
	DeltaRel  float64 `json:"delta_rel"`
	Tolerance float64 `json:"tolerance"`
	Gated     bool    `json:"gated"`
	OK        bool    `json:"ok"`
}

type diffDoc struct {
	Mode        string       `json:"mode"`
	Schema      float64      `json:"baseline_schema"`
	FreshSchema float64      `json:"fresh_schema"`
	Gates       []comparison `json:"gates"`
	Info        []comparison `json:"info"`
	Skipped     []string     `json:"skipped"`
	Failures    int          `json:"failures"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		basePath  = flag.String("baseline", "", "committed baseline JSON")
		freshPath = flag.String("fresh", "", "freshly produced JSON")
		outPath   = flag.String("out", "", "write the diff document here")
		tolerance = flag.Float64("tolerance", 0.25, "default relative regression tolerance for gated fields")
	)
	flag.Parse()
	if *basePath == "" || *freshPath == "" {
		return fmt.Errorf("need -baseline and -fresh")
	}
	base, err := load(*basePath)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	fresh, err := load(*freshPath)
	if err != nil {
		return fmt.Errorf("fresh: %w", err)
	}
	doc, err := compare(base, fresh, *tolerance)
	if err != nil {
		return err
	}

	for _, c := range doc.Gates {
		status := "ok"
		if !c.OK {
			status = "REGRESSION"
		}
		fmt.Printf("  %-28s %14.6f -> %14.6f (%+.1f%%, tol %.0f%%) %s\n",
			c.Key, c.Baseline, c.Fresh, 100*c.DeltaRel, 100*c.Tolerance, status)
	}
	for _, k := range doc.Skipped {
		fmt.Printf("  %-28s skipped (absent from baseline or fresh document)\n", k)
	}
	if *outPath != "" {
		out, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		out = append(out, '\n')
		if err := os.WriteFile(*outPath, out, 0o644); err != nil {
			return err
		}
	}
	if doc.Failures > 0 {
		return fmt.Errorf("%d gated field(s) regressed beyond tolerance (mode %s)", doc.Failures, doc.Mode)
	}
	fmt.Printf("benchdiff: %s document within tolerance of %s\n", doc.Mode, *basePath)
	return nil
}

// compare checks fresh against base: both must be documents of the
// same mode and configuration; every gated field of that mode is
// compared under tolerance (or the gate's own rel/abs), and every other
// shared scalar is listed as an ungated info row.
func compare(base, fresh map[string]any, tolerance float64) (*diffDoc, error) {
	mode := docMode(base)
	if fm := docMode(fresh); fm != mode {
		return nil, fmt.Errorf("mode mismatch: baseline %q vs fresh %q", mode, fm)
	}
	if err := sameConfig(base, fresh); err != nil {
		return nil, err
	}
	gates, ok := gatesByMode[mode]
	if !ok {
		return nil, fmt.Errorf("unknown document mode %q", mode)
	}

	doc := &diffDoc{Mode: mode}
	doc.Schema, _ = num(base, "schema")
	doc.FreshSchema, _ = num(fresh, "schema")
	for _, g := range gates {
		bv, okB := num(base, g.key)
		fv, okF := num(fresh, g.key)
		if !okB || !okF {
			doc.Skipped = append(doc.Skipped, g.key)
			continue
		}
		tol := tolerance
		if g.rel > 0 {
			tol = g.rel
		}
		slack := math.Max(tol*math.Abs(bv), g.abs)
		var pass bool
		switch g.dir {
		case up:
			pass = fv <= bv+slack
		default:
			pass = math.Abs(fv-bv) <= slack
		}
		rel := 0.0
		if bv != 0 {
			rel = (fv - bv) / math.Abs(bv)
		}
		doc.Gates = append(doc.Gates, comparison{
			Key: g.key, Baseline: bv, Fresh: fv, DeltaRel: rel, Tolerance: tol, Gated: true, OK: pass,
		})
		if !pass {
			doc.Failures++
		}
	}
	// Ungated informational rows: every shared scalar not already gated
	// (wall clocks, speedups, counters), for the uploaded artifact.
	gated := map[string]bool{}
	for _, g := range gates {
		gated[g.key] = true
	}
	// base is a decoded JSON map: walk its keys sorted so the info rows
	// of the uploaded artifact diff cleanly between CI runs.
	keys := make([]string, 0, len(base))
	for key := range base {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		if gated[key] || key == "schema" {
			continue
		}
		bv, okB := toFloat(base[key])
		fv, okF := num(fresh, key)
		if !okB || !okF {
			continue
		}
		rel := 0.0
		if bv != 0 {
			rel = (fv - bv) / math.Abs(bv)
		}
		doc.Info = append(doc.Info, comparison{Key: key, Baseline: bv, Fresh: fv, DeltaRel: rel, OK: true})
	}
	return doc, nil
}

func load(path string) (map[string]any, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, err
	}
	if _, ok := doc["schema"]; !ok {
		return nil, fmt.Errorf("%s: no schema field — not a bench document", path)
	}
	return doc, nil
}

func docMode(doc map[string]any) string {
	if m, ok := doc["mode"].(string); ok {
		return m
	}
	// The schema-2 -flow layout predates the mode field.
	return "flow"
}

// sameConfig insists both documents ran the same workload — comparing
// different instance sizes or seeds would gate noise, not regressions.
func sameConfig(base, fresh map[string]any) error {
	bc, _ := base["config"].(map[string]any)
	fc, _ := fresh["config"].(map[string]any)
	if bc == nil || fc == nil {
		return fmt.Errorf("config block missing")
	}
	for _, key := range []string{"n", "degree", "max_cap", "seed", "queries", "epsilon"} {
		bv, okB := toFloat(bc[key])
		fv, okF := toFloat(fc[key])
		if !okB || !okF || bv != fv {
			return fmt.Errorf("config mismatch on %q: baseline %v vs fresh %v — run the bench at the baseline's config", key, bc[key], fc[key])
		}
	}
	return nil
}

func num(doc map[string]any, key string) (float64, bool) {
	return toFloat(doc[key])
}

func toFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case bool:
		if x {
			return 1, true
		}
		return 0, true
	}
	return 0, false
}
