package main

import "fmt"

// budget is one pass/fail check of a bench mode, set by its -*-ceiling
// or -*-floor flag: a ceiling fails when the measurement exceeds the
// limit, a floor when it falls below it. A measurement exactly at the
// limit passes, and a limit of 0 (the flags' default) turns the check
// off.
type budget struct {
	flag  string // the flag that sets the limit
	what  string // the measured quantity, for the error message
	floor bool
}

// The eight budgets, one per flag.
var (
	iterBudget          = budget{flag: "iter-ceiling", what: "sequential gradient iterations"}
	parallelBudget      = budget{flag: "parallel-floor", what: "parallel build speedup (x)", floor: true}
	buildBudget         = budget{flag: "build-ceiling", what: "router build seconds"}
	updateBudget        = budget{flag: "update-ceiling", what: "dirty update seconds per edit"}
	churnBudget         = budget{flag: "churn-ceiling", what: "churn update seconds per batch"}
	serveBudget         = budget{flag: "serve-ceiling", what: "serve p99 seconds"}
	serveDeadlineBudget = budget{flag: "serve-deadline-ceiling", what: "chaos p99 seconds (limit = ceiling × deadline)"}
	scaleMemBudget      = budget{flag: "scale-mem-ceiling", what: "peak heap MB"}
)

// check returns an error when got breaks the limit.
func (b budget) check(got, limit float64) error {
	switch {
	case limit <= 0:
		return nil
	case b.floor && got < limit:
		return fmt.Errorf("-%s: %s %g below floor %g", b.flag, b.what, got, limit)
	case !b.floor && got > limit:
		return fmt.Errorf("-%s: %s %g exceeds ceiling %g", b.flag, b.what, got, limit)
	}
	return nil
}
