// Package trace records structured events emitted by the runtime: monitor
// acquisitions, revocations, rollbacks, context switches, deadlock
// resolutions. Traces drive integration tests (assert on the event stream)
// and the example programs (human-readable narration of a schedule).
package trace

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/simtime"
)

// Kind classifies an event.
type Kind int

// Event kinds, roughly in lifecycle order.
const (
	ThreadStart Kind = iota
	ThreadEnd
	ContextSwitch
	MonitorEnter
	MonitorAcquired
	MonitorBlocked
	MonitorExit
	InversionDetected
	RevokeRequested
	RevokeDenied
	Rollback
	Reexecution
	NonRevocable
	DeadlockDetected
	DeadlockBroken
	WaitStart
	WaitEnd
	Notify
	NativeCall
	VolatileWrite
	VolatileRead
	Custom
	// StaticPreMark records a monitor made non-revocable at monitorenter by
	// load-time static analysis rather than by a dynamic trigger.
	StaticPreMark
	// RaceDetected records a data race confirmed by the dynamic sanitizer
	// (internal/race): two accesses to one slot, at least one a write,
	// unordered by happens-before — and neither retracted by a rollback.
	RaceDetected
	// Sleep records a thread parking on the virtual-time timer queue, so
	// the causal DAG (internal/causal) can bound the idle jumps it causes.
	Sleep
	// SchedIdle records the scheduler jumping the clock forward because no
	// thread was runnable (all sleeping on timers). At is the post-jump
	// time, so the idle interval is [At-N, At).
	SchedIdle
)

// numKinds is the number of defined kinds. AllKinds, the name table and
// every binary/JSONL vocabulary are sized by it; a kind added above without
// extending kindNames leaves an empty slot that the vocabulary coverage
// test rejects, so a new kind can never silently miss an exporter.
const numKinds = int(SchedIdle) + 1

// kindNames is THE event-kind vocabulary: the single shared table behind
// the JSONL meta line, the flight-recorder binary codec and every String()
// rendering. Names are wire format — renaming one changes what every
// downstream consumer parses, so the golden test pins the exact list and a
// rename must bump the trace schema version.
var kindNames = [numKinds]string{
	ThreadStart:       "thread-start",
	ThreadEnd:         "thread-end",
	ContextSwitch:     "context-switch",
	MonitorEnter:      "monitor-enter",
	MonitorAcquired:   "monitor-acquired",
	MonitorBlocked:    "monitor-blocked",
	MonitorExit:       "monitor-exit",
	InversionDetected: "inversion-detected",
	RevokeRequested:   "revoke-requested",
	RevokeDenied:      "revoke-denied",
	Rollback:          "rollback",
	Reexecution:       "re-execution",
	NonRevocable:      "non-revocable",
	DeadlockDetected:  "deadlock-detected",
	DeadlockBroken:    "deadlock-broken",
	WaitStart:         "wait-start",
	WaitEnd:           "wait-end",
	Notify:            "notify",
	NativeCall:        "native-call",
	VolatileWrite:     "volatile-write",
	VolatileRead:      "volatile-read",
	Custom:            "custom",
	StaticPreMark:     "static-premark",
	RaceDetected:      "race-detected",
	Sleep:             "sleep",
	SchedIdle:         "sched-idle",
}

var kindByName = func() map[string]Kind {
	m := make(map[string]Kind, numKinds)
	for k, name := range kindNames {
		if name != "" {
			m[name] = Kind(k)
		}
	}
	return m
}()

// String returns the stable, hyphenated name of the kind.
func (k Kind) String() string {
	if k >= 0 && int(k) < numKinds && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Names returns the stable name of every kind, indexed by kind value —
// the shared vocabulary consumed by the JSONL meta line and the
// flight-recorder binary codec.
func Names() []string {
	out := make([]string, numKinds)
	copy(out, kindNames[:])
	return out
}

// KindByName resolves a stable name back to its kind, the inverse of
// String for every defined kind.
func KindByName(name string) (Kind, bool) {
	k, ok := kindByName[name]
	return k, ok
}

// ValidKind reports whether k is a defined kind with a name in the
// vocabulary — the decode-side check of the binary codec.
func ValidKind(k Kind) bool {
	return k >= 0 && int(k) < numKinds && kindNames[k] != ""
}

// Event is one timestamped occurrence. Payloads are typed: numbers live in
// N and Aux, and Detail only ever holds "", a constant or a name the
// runtime already has, so no consumer parses it. Other names the
// counterpart thread. This is the one table of per-kind payloads (kinds
// not listed carry none):
//
//	kind                N                  Aux                 Other       Detail
//	thread-start        base priority                          spawner
//	context-switch      switch cost ticks
//	monitor-enter                                                          "contended"
//	monitor-acquired    undo-log length    section depth                   "" or "elided"
//	monitor-blocked                                            holder      "" or "queued"
//	monitor-exit        undo-log length                                    "" or "elided"
//	inversion-detected                     owner's priority    holder      "" or "periodic-scan"
//	revoke-requested                       target depth (0:    requester   reason token
//	                                       a pending grant)
//	revoke-denied                                                          non-revocability reason
//	rollback            wasted CPU ticks   entries undone      requester   reason token
//	re-execution        attempt                                            "" or "engine"
//	non-revocable, static-premark                                          reason
//	deadlock-detected                                                      cycle "[thread->monitor ...]"
//	notify                                                                 "" or "all"
//	native-call                                                            method name
//	volatile-read/write                                                    field name ("" for statics)
//	race-detected       occurrences                            earlier     access kinds and sites
//	sleep               ticks
//	sched-idle          ticks skipped
//
// Reason tokens are "priority-inversion" and "deadlock". Exporters label
// Aux (AuxLabel) only when they render.
type Event struct {
	At     simtime.Ticks
	Kind   Kind
	Thread string // name of the acting thread ("" for scheduler events)
	Object string // monitor or object involved, if any
	Other  string // counterpart thread
	N      int64  // first numeric payload; zero when unused
	Aux    int64  // second numeric payload; zero when unused
	Detail string // constant or runtime-held name; never parsed
}

// auxLabels names the Aux payload of the kinds that carry one.
var auxLabels = [numKinds]string{
	MonitorAcquired:   "depth",
	InversionDetected: "owner-prio",
	RevokeRequested:   "depth",
	Rollback:          "undone",
}

// AuxLabel returns the export label of k's Aux payload, or "" when the
// kind carries none.
func AuxLabel(k Kind) string {
	if ValidKind(k) {
		return auxLabels[k]
	}
	return ""
}

// String renders the event on one line.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%8d] %-18s", e.At, e.Kind)
	if e.Thread != "" {
		fmt.Fprintf(&b, " thread=%s", e.Thread)
	}
	if e.Object != "" {
		fmt.Fprintf(&b, " object=%s", e.Object)
	}
	if e.Other != "" {
		fmt.Fprintf(&b, " other=%s", e.Other)
	}
	if e.N != 0 {
		fmt.Fprintf(&b, " n=%d", e.N)
	}
	if l := AuxLabel(e.Kind); l != "" {
		fmt.Fprintf(&b, " %s=%d", l, e.Aux)
	}
	if e.Detail != "" {
		fmt.Fprintf(&b, " %s", e.Detail)
	}
	return b.String()
}

// AllKinds returns every defined kind in declaration order. Exporters use
// it to enumerate the stable name set; a new kind added above extends the
// slice automatically (SchedIdle is the last defined kind).
func AllKinds() []Kind {
	kinds := make([]Kind, 0, numKinds)
	for k := ThreadStart; int(k) < numKinds; k++ {
		kinds = append(kinds, k)
	}
	return kinds
}

// Sink receives events. Implementations must be cheap; the runtime calls
// Emit on the hot path when tracing is enabled.
type Sink interface {
	Emit(Event)
}

// Recorder is a Sink that appends events to memory for later inspection.
// The zero value is ready to use.
type Recorder struct {
	events []Event
}

// Emit appends the event.
func (r *Recorder) Emit(e Event) { r.events = append(r.events, e) }

// Events returns a snapshot of the recorded events in emission order. The
// snapshot is a copy: it stays valid (and stable) across later Emit and
// Reset calls. Reset truncates the backing store in place, so returning it
// directly would let post-Reset emissions silently clobber a slice captured
// earlier.
func (r *Recorder) Events() []Event {
	out := make([]Event, len(r.events))
	copy(out, r.events)
	return out
}

// Len reports how many events were recorded.
func (r *Recorder) Len() int { return len(r.events) }

// Reset discards all recorded events.
func (r *Recorder) Reset() { r.events = r.events[:0] }

// Count returns the number of recorded events of the given kind.
func (r *Recorder) Count(k Kind) int {
	n := 0
	for _, e := range r.events {
		if e.Kind == k {
			n++
		}
	}
	return n
}

// CountFor returns the number of events of kind k acted by the named thread.
func (r *Recorder) CountFor(k Kind, thread string) int {
	n := 0
	for _, e := range r.events {
		if e.Kind == k && e.Thread == thread {
			n++
		}
	}
	return n
}

// First returns the first event of the given kind, or ok=false.
func (r *Recorder) First(k Kind) (Event, bool) {
	for _, e := range r.events {
		if e.Kind == k {
			return e, true
		}
	}
	return Event{}, false
}

// Filter returns all events satisfying keep, in order.
func (r *Recorder) Filter(keep func(Event) bool) []Event {
	var out []Event
	for _, e := range r.events {
		if keep(e) {
			out = append(out, e)
		}
	}
	return out
}

// Dump writes the whole trace to w, one event per line.
func (r *Recorder) Dump(w io.Writer) {
	for _, e := range r.events {
		fmt.Fprintln(w, e)
	}
}

// Writer is a Sink that streams each event to an io.Writer as it occurs.
type Writer struct {
	W io.Writer
}

// Emit writes the event followed by a newline.
func (w Writer) Emit(e Event) { fmt.Fprintln(w.W, e) }

// Multi fans events out to several sinks.
type Multi []Sink

// Emit delivers e to every sink in order.
func (m Multi) Emit(e Event) {
	for _, s := range m {
		s.Emit(e)
	}
}

// Discard is a Sink that drops everything.
var Discard Sink = discard{}

type discard struct{}

func (discard) Emit(Event) {}

// Join combines sinks into one, dropping nil and Discard entries: the
// result is nil when nothing subscribes, the single subscriber itself, or
// a Multi. The runtime keeps the joined sink and skips emission entirely
// when it is nil.
func Join(sinks ...Sink) Sink {
	var m Multi
	for _, s := range sinks {
		if s != nil && s != Discard {
			m = append(m, s)
		}
	}
	switch len(m) {
	case 0:
		return nil
	case 1:
		return m[0]
	}
	return m
}
