package main

import (
	"math"
	"os"
	"strings"
	"testing"
)

// Every budget passes at its limit and just inside it, fails just past
// it, and never fires when its flag is left at 0.
func TestBudgetChecks(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []budget{
		iterBudget, parallelBudget, buildBudget, updateBudget,
		churnBudget, serveBudget, serveDeadlineBudget, scaleMemBudget,
	} {
		t.Run(b.flag, func(t *testing.T) {
			if !strings.Contains(string(src), `("`+b.flag+`", 0,`) {
				t.Fatalf("main.go registers no -%s flag defaulting to 0", b.flag)
			}
			for _, limit := range []float64{1, 1.5, 700, 1400} {
				past, inside := math.Inf(1), math.Inf(-1)
				if b.floor {
					past, inside = inside, past
				}
				for _, c := range []struct {
					got  float64
					fail bool
				}{
					{limit, false},
					{math.Nextafter(limit, inside), false},
					{math.Nextafter(limit, past), true},
				} {
					if err := b.check(c.got, limit); (err != nil) != c.fail {
						t.Errorf("limit %v, got %v: err = %v, want failure %v", limit, c.got, err, c.fail)
					}
					if err := b.check(c.got, 0); err != nil {
						t.Errorf("limit 0 (off), got %v: %v", c.got, err)
					}
				}
			}
		})
	}
}
