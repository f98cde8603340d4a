package congest

import (
	"fmt"
	"sort"
	"strings"
)

// Ledger accumulates round costs across the phases of a multi-phase
// algorithm. Phases executed in the simulator charge their measured
// Stats; phases executed in "accounted mode" (see DESIGN.md §1) charge
// rounds computed from the paper's simulation lemmas instantiated with
// measured quantities (tree depths, component counts, pipeline lengths).
// The ledger keeps the two kinds separate so reports can show how much
// of a bound was measured vs accounted.
// Alongside rounds the ledger carries measured message and byte
// counts: executed phases (the congest simulator, the internal/shard
// engine) know exactly how many boundary messages crossed shard lines
// and how large the payloads were, and the Õ(√n + D) claim is only
// checkable against measurement if those survive next to the rounds.
type Ledger struct {
	measured   int64
	accounted  int64
	messages   int64
	bytes      int64
	phases     map[string]int64 // rounds per phase
	phaseMsgs  map[string]int64 // measured messages per phase
	phaseBytes map[string]int64 // measured payload bytes per phase
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{
		phases:     make(map[string]int64),
		phaseMsgs:  make(map[string]int64),
		phaseBytes: make(map[string]int64),
	}
}

// ChargeMeasured adds rounds, messages, and bytes measured by simulator
// execution. Stats counts bits on the wire; the ledger keeps bytes
// (rounded up) so shard-engine payloads and simulator payloads land in
// the same column.
func (l *Ledger) ChargeMeasured(phase string, s Stats) {
	l.ChargeExchange(phase, int64(s.Rounds), s.Messages, (s.Bits+7)/8)
}

// ChargeExchange adds measured communication costs directly: rounds of
// synchronous exchange, messages sent, and payload bytes. This is the
// charge the internal/shard engine reports per operator application.
func (l *Ledger) ChargeExchange(phase string, rounds, messages, bytes int64) {
	if rounds < 0 || messages < 0 || bytes < 0 {
		panic("congest: negative exchange charge")
	}
	l.measured += rounds
	l.messages += messages
	l.bytes += bytes
	l.phases[phase] += rounds
	if messages != 0 {
		l.phaseMsgs[phase] += messages
	}
	if bytes != 0 {
		l.phaseBytes[phase] += bytes
	}
}

// ChargeAccounted adds rounds charged analytically from measured
// structural quantities (e.g. Lemma 5.1's O((D+√n)·t) with the actual
// D, cluster depths and t).
func (l *Ledger) ChargeAccounted(phase string, rounds int64) {
	if rounds < 0 {
		panic("congest: negative round charge")
	}
	l.accounted += rounds
	l.phases[phase] += rounds
}

// Total returns all rounds charged so far.
func (l *Ledger) Total() int64 { return l.measured + l.accounted }

// Measured returns the simulator-executed rounds.
func (l *Ledger) Measured() int64 { return l.measured }

// Accounted returns the analytically charged rounds.
func (l *Ledger) Accounted() int64 { return l.accounted }

// Messages returns the measured boundary messages charged so far.
func (l *Ledger) Messages() int64 { return l.messages }

// Bytes returns the measured payload bytes charged so far.
func (l *Ledger) Bytes() int64 { return l.bytes }

// Phase returns the rounds charged to one phase label.
func (l *Ledger) Phase(name string) int64 { return l.phases[name] }

// PhaseMessages returns the measured messages charged to one phase.
func (l *Ledger) PhaseMessages(name string) int64 { return l.phaseMsgs[name] }

// PhaseBytes returns the measured payload bytes charged to one phase.
func (l *Ledger) PhaseBytes(name string) int64 { return l.phaseBytes[name] }

// PhaseNames returns every phase label charged so far, sorted. Callers
// that report per-phase breakdowns enumerate the ledger's actual phases
// through this — hardcoded name lists go stale the moment a new phase
// is charged, and their breakdowns silently stop summing to Total.
// The slice is the sorted union across the rounds, messages, and bytes
// columns: a phase that only ever charged messages (possible through
// ChargeExchange with zero rounds) still appears exactly once, so
// String and every report stay deterministic without ranging any map
// in emit order.
func (l *Ledger) PhaseNames() []string {
	names := make([]string, 0, len(l.phases))
	for k := range l.phases {
		names = append(names, k)
	}
	for k := range l.phaseMsgs {
		if _, ok := l.phases[k]; !ok {
			names = append(names, k)
		}
	}
	for k := range l.phaseBytes {
		if _, seenRounds := l.phases[k]; !seenRounds {
			if _, seenMsgs := l.phaseMsgs[k]; !seenMsgs {
				names = append(names, k)
			}
		}
	}
	sort.Strings(names)
	return names
}

// Clone returns a deep copy of the ledger. Epoch snapshots fork the
// approximator's construction ledger through this: the published copy
// stays frozen for concurrent per-query reads while the update path
// keeps charging the private copy.
func (l *Ledger) Clone() *Ledger {
	c := &Ledger{measured: l.measured, accounted: l.accounted,
		messages: l.messages, bytes: l.bytes,
		phases:     make(map[string]int64, len(l.phases)),
		phaseMsgs:  make(map[string]int64, len(l.phaseMsgs)),
		phaseBytes: make(map[string]int64, len(l.phaseBytes))}
	for k, v := range l.phases {
		c.phases[k] = v
	}
	for k, v := range l.phaseMsgs {
		c.phaseMsgs[k] = v
	}
	for k, v := range l.phaseBytes {
		c.phaseBytes[k] = v
	}
	return c
}

// Add merges another ledger into l.
func (l *Ledger) Add(other *Ledger) {
	l.measured += other.measured
	l.accounted += other.accounted
	l.messages += other.messages
	l.bytes += other.bytes
	for k, v := range other.phases {
		l.phases[k] += v
	}
	for k, v := range other.phaseMsgs {
		l.phaseMsgs[k] += v
	}
	for k, v := range other.phaseBytes {
		l.phaseBytes[k] += v
	}
}

// String renders a stable per-phase breakdown for reports. Phases are
// emitted in PhaseNames order (the sorted union of every column), so
// the dump is deterministic run to run; message and byte columns only
// appear on lines that actually exchanged payloads.
func (l *Ledger) String() string {
	names := l.PhaseNames()
	var b strings.Builder
	fmt.Fprintf(&b, "rounds total=%d (measured=%d accounted=%d)", l.Total(), l.measured, l.accounted)
	if l.messages != 0 || l.bytes != 0 {
		fmt.Fprintf(&b, " messages=%d bytes=%d", l.messages, l.bytes)
	}
	for _, k := range names {
		fmt.Fprintf(&b, "\n  %-28s %d", k, l.phases[k])
		if m, by := l.phaseMsgs[k], l.phaseBytes[k]; m != 0 || by != 0 {
			fmt.Fprintf(&b, " msgs=%d bytes=%d", m, by)
		}
	}
	return b.String()
}
