// Package fr is the VM's black-box flight recorder: a bounded ring-buffer
// trace.Sink cheap enough to stay attached on every run, paired with a
// trigger engine that snapshots the ring into a self-contained .rvmfr dump
// the moment an anomaly fires — a runtime deadlock cycle, a committed race
// report, a revocation storm, or a blocking-latency breach.
//
// The paper's revocation protocol makes failures transient: wasted work,
// rollback storms and inversions leave no artifact unless a trace sink was
// attached up front, which a production VM cannot afford at full fidelity.
// The recorder resolves that tension the JFR way: every event is encoded
// into a compact varint record (interned strings, one allocation-free
// append path) and written into a fixed ring that overwrites its oldest
// records, so the last window of history is always available for the price
// of a few dozen nanoseconds per event. Dumps embed the event window, the
// intern table, runtime stats, the window's replayed metrics and an
// optional profiler digest — everything a post-mortem needs, with nothing
// required of the run that crashed.
package fr

import (
	"encoding/json"

	"repro/internal/obs"
	"repro/internal/simtime"
	"repro/internal/trace"
)

// DefaultSize is the default ring capacity in bytes. Records average
// 10–20 bytes, so the default window holds on the order of 15–25 thousand
// events — minutes of virtual time for the example workloads.
const DefaultSize = 256 << 10

// DefaultMaxStrings caps the intern table. Thread, monitor and method
// names number in the dozens; the cap only matters against adversarial
// high-cardinality detail strings, which overflow to inline encoding.
const DefaultMaxStrings = 1 << 16

// Config parameterizes a Recorder.
type Config struct {
	// Size is the ring capacity in bytes (DefaultSize when zero).
	Size int
	// MaxStrings caps the intern table (DefaultMaxStrings when zero).
	MaxStrings int
	// Triggers selects which anomalies snapshot the ring.
	Triggers TriggerSpec
	// OnDump receives each trigger-fired dump. Nil disables automatic
	// dumps; Snapshot still works.
	OnDump func(*Dump)

	// Program and VM label the dump's meta section.
	Program string
	VM      string

	// StatsJSON, when non-nil, is invoked at dump time for the stats
	// section payload (rvmrun feeds core.Stats through it). ProfileJSON
	// likewise for the profiler digest. Either may return nil.
	StatsJSON   func() []byte
	ProfileJSON func() []byte
}

// Recorder is the always-on trace.Sink. Not safe for concurrent use — the
// VM's uniprocessor scheduler serializes emissions; wrap in a SyncRecorder
// when a foreign goroutine (the /debug/fr endpoint) must snapshot a live
// ring.
type Recorder struct {
	cfg  Config
	ring *ring
	tab  *stringTable

	buf     []byte // encode scratch, grown once
	scratch []byte // snapshot linearization scratch
	caches  [4]strCache

	trig   triggerState
	seq    int
	lastAt simtime.Ticks
}

// New creates a recorder.
func New(cfg Config) *Recorder {
	if cfg.Size == 0 {
		cfg.Size = DefaultSize
	}
	if cfg.MaxStrings == 0 {
		cfg.MaxStrings = DefaultMaxStrings
	}
	r := &Recorder{
		cfg:  cfg,
		ring: newRing(cfg.Size),
		tab:  newStringTable(cfg.MaxStrings),
		buf:  make([]byte, 0, 256),
	}
	r.trig.init(cfg.Triggers)
	return r
}

// Emit encodes one event into the ring and runs the trigger checks.
// Implements trace.Sink. Steady state (all strings interned, no anomaly)
// performs zero allocations.
func (r *Recorder) Emit(e trace.Event) {
	r.buf = appendEvent(r.buf[:0], &e, r.tab, &r.caches)
	r.ring.append(r.buf)
	if e.At > r.lastAt {
		r.lastAt = e.At
	}
	if reason, ok := r.trig.check(&e); ok {
		r.fire(reason, e)
	}
}

// Len reports how many events the ring currently holds.
func (r *Recorder) Len() int { return r.ring.count }

// Lost reports how many events have been overwritten (or were too large to
// store) since the recorder started.
func (r *Recorder) Lost() uint64 { return r.ring.lost }

// Wrapped reports whether the ring has overwritten any event.
func (r *Recorder) Wrapped() bool { return r.ring.lost > 0 }

// Events decodes the ring's current contents, oldest first.
func (r *Recorder) Events() ([]trace.Event, error) {
	d := decoder{strs: r.tab.strs}
	events := make([]trace.Event, 0, r.ring.count)
	var err error
	r.scratch, err = r.ring.snapshot(r.scratch, func(payload []byte) error {
		e, derr := d.decodeEvent(payload)
		if derr != nil {
			return derr
		}
		events = append(events, e)
		return nil
	})
	return events, err
}

// Snapshot assembles a dump of the current ring on demand — the manual
// variant of a trigger firing (the /debug/fr endpoint, end-of-run capture).
func (r *Recorder) Snapshot(reason string) (*Dump, error) {
	if reason == "" {
		reason = ReasonManual
	}
	return r.dump(reason, trace.Event{At: r.lastAt})
}

// fire assembles and delivers a dump for an anomaly. Each trigger reason
// fires at most once per run: the first occurrence is the interesting one,
// and a storm of dumps from a storm of rollbacks would bury it.
func (r *Recorder) fire(reason string, e trace.Event) {
	if r.cfg.OnDump == nil {
		return
	}
	d, err := r.dump(reason, e)
	if err != nil {
		// A ring that fails to decode is a codec bug; surface it through
		// the dump's meta rather than dropping the anomaly on the floor.
		d = &Dump{Version: DumpVersion, Meta: Meta{
			V: DumpVersion, Reason: reason, Seq: r.seq, At: int64(e.At),
			Detail: "decode error: " + err.Error(),
		}}
	}
	r.cfg.OnDump(d)
}

// dump snapshots the ring and every attached registry into a Dump.
func (r *Recorder) dump(reason string, e trace.Event) (*Dump, error) {
	r.seq++
	events, err := r.Events()
	if err != nil {
		return nil, err
	}
	d := &Dump{
		Version: DumpVersion,
		Meta: Meta{
			V:       DumpVersion,
			Reason:  reason,
			Seq:     r.seq,
			At:      int64(e.At),
			Detail:  triggerDetail(e),
			Program: r.cfg.Program,
			VM:      r.cfg.VM,
		},
		Strings:    append([]string(nil), r.tab.strs...),
		Events:     events,
		EventCount: len(events),
		Truncated:  r.ring.lost > 0,
		Lost:       r.ring.lost,
		records:    r.ring.linearize(),
	}
	// The metrics section is the ring window replayed through a fresh
	// observer: self-contained, exact for an unwrapped ring, and the
	// property tests pin it equal to a live-attached Observer.
	o := obs.NewObserver()
	for _, ev := range events {
		o.Emit(ev)
	}
	if mj, err := json.Marshal(o.Metrics().Summary()); err == nil {
		d.MetricsJSON = mj
	}
	if r.cfg.StatsJSON != nil {
		d.StatsJSON = r.cfg.StatsJSON()
	}
	if r.cfg.ProfileJSON != nil {
		d.ProfileJSON = r.cfg.ProfileJSON()
	}
	return d, nil
}

// triggerDetail renders the firing event as human-readable trigger context.
func triggerDetail(e trace.Event) string {
	if e.Kind == 0 && e.Thread == "" && e.Object == "" && e.Detail == "" {
		return ""
	}
	return e.String()
}
