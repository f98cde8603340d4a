package main

import (
	"math"
	"os"
	"path/filepath"
	"testing"
)

const testTolerance = 0.25

// synthDoc builds a minimal document of the given mode with every gated
// key at val plus two ungated wall-clock fields.
func synthDoc(mode string, val float64) map[string]any {
	doc := map[string]any{
		"schema": 9.0,
		"mode":   mode,
		"config": map[string]any{
			"n": 2500.0, "degree": 8.0, "max_cap": 64.0, "seed": 3.0, "queries": 8.0, "epsilon": 0.5,
		},
		"router_build_seconds": 1.0,
		"queries_per_second":   10.0,
	}
	for _, g := range gatesByMode[mode] {
		doc[g.key] = val
	}
	return doc
}

func clone(doc map[string]any) map[string]any {
	out := make(map[string]any, len(doc))
	for k, v := range doc {
		out[k] = v
	}
	return out
}

// slackOf is the allowed movement of gate g at baseline bv.
func slackOf(g gate, bv float64) float64 {
	tol := testTolerance
	if g.rel > 0 {
		tol = g.rel
	}
	return math.Max(tol*math.Abs(bv), g.abs)
}

func mustCompare(t *testing.T, base, fresh map[string]any) *diffDoc {
	t.Helper()
	doc, err := compare(base, fresh, testTolerance)
	if err != nil {
		t.Fatalf("compare: %v", err)
	}
	return doc
}

// TestCompareGates drives every gated field of every mode: it passes at
// equality and just inside its tolerance, and fails alone just past it
// (in both directions for two-sided gates), at a regular and at a zero
// baseline (where only a gate's absolute slack applies).
func TestCompareGates(t *testing.T) {
	for mode, gates := range gatesByMode {
		for _, bv := range []float64{100, 0} {
			base := synthDoc(mode, bv)
			doc := mustCompare(t, base, clone(base))
			if doc.Failures != 0 || len(doc.Gates) != len(gates) || len(doc.Skipped) != 0 {
				t.Fatalf("%s at %v: equal documents gave %d failures, %d gates, %d skipped",
					mode, bv, doc.Failures, len(doc.Gates), len(doc.Skipped))
			}
			for _, g := range gates {
				slack := slackOf(g, bv)
				past := slack*(1+1e-6) + 1e-9
				worse := []float64{bv + past}
				if g.dir == both {
					worse = append(worse, bv-past)
				}
				for _, fv := range worse {
					fresh := clone(base)
					fresh[g.key] = fv
					doc := mustCompare(t, base, fresh)
					if doc.Failures != 1 {
						t.Errorf("%s/%s: %v -> %v gave %d failures, want 1", mode, g.key, bv, fv, doc.Failures)
					}
					for _, c := range doc.Gates {
						if c.OK != (c.Key != g.key) {
							t.Errorf("%s/%s: %v -> %v: gate %s ok=%v", mode, g.key, bv, fv, c.Key, c.OK)
						}
					}
				}
				fresh := clone(base)
				fresh[g.key] = bv + slack*(1-1e-6)
				if doc := mustCompare(t, base, fresh); doc.Failures != 0 {
					t.Errorf("%s/%s: move within tolerance failed the gate", mode, g.key)
				}
			}
		}
	}
}

// TestCompareUngatedNeverFails regresses the wall-clock fields a
// thousandfold: they show up as info rows and never fail the gate.
func TestCompareUngatedNeverFails(t *testing.T) {
	for mode := range gatesByMode {
		base := synthDoc(mode, 100)
		fresh := clone(base)
		fresh["router_build_seconds"] = 1000.0
		fresh["queries_per_second"] = 0.01
		doc := mustCompare(t, base, fresh)
		if doc.Failures != 0 {
			t.Errorf("%s: ungated regressions failed %d gates", mode, doc.Failures)
		}
		info := map[string]bool{}
		for _, c := range doc.Info {
			info[c.Key] = c.OK
		}
		for _, k := range []string{"router_build_seconds", "queries_per_second"} {
			if ok, found := info[k]; !found || !ok {
				t.Errorf("%s: %s missing from the info rows or not ok", mode, k)
			}
		}
	}
}

// TestCompareRejectsMismatch refuses to compare different modes or
// configurations.
func TestCompareRejectsMismatch(t *testing.T) {
	base := synthDoc("shard", 1)
	other := synthDoc("scale", 1)
	if _, err := compare(base, other, testTolerance); err == nil {
		t.Error("mode mismatch accepted")
	}
	fresh := clone(base)
	fresh["config"] = map[string]any{"n": 10.0}
	if _, err := compare(base, fresh, testTolerance); err == nil {
		t.Error("config mismatch accepted")
	}
}

// TestGatesNameCommittedKeys checks every gated key exists in the
// committed baseline CI compares that mode against, so a misspelt gate
// cannot silently skip.
func TestGatesNameCommittedKeys(t *testing.T) {
	baselines := map[string]string{
		"flow":  "BENCH_accel.json",
		"build": "BENCH_update.json",
		"churn": "BENCH_churn.json",
		"serve": "BENCH_serve.json",
		"scale": "BENCH_scale.json",
		"shard": "BENCH_shard.json",
	}
	for mode := range gatesByMode {
		file, ok := baselines[mode]
		if !ok {
			t.Errorf("mode %s has no committed baseline listed", mode)
			continue
		}
		path := filepath.Join("..", "..", file)
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		doc, err := load(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if got := docMode(doc); got != mode {
			t.Errorf("%s: mode %q, want %q", file, got, mode)
		}
		for _, g := range gatesByMode[mode] {
			if _, ok := num(doc, g.key); !ok {
				t.Errorf("%s: gated key %s absent from %s", mode, g.key, file)
			}
		}
	}
}
