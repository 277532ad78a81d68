package obs

import (
	"repro/internal/simtime"
	"repro/internal/trace"
)

// Observer is a trace.Sink that reconstructs causal spans, revocation
// chains and latency histograms from the runtime's event stream. Attach it
// via core.Config.Observer (or any trace.Multi) and query it after the run.
//
// The reconstruction is defensive: events that cannot be joined to an open
// span (a rollback without a matching acquisition, an exit on an empty
// stack) are counted in Dropped rather than corrupting state, so the
// observer is safe on truncated or adversarial streams.
type Observer struct {
	threads map[string]*threadState
	order   []string // first-seen thread order (stable track order)

	spans  []Span
	chains []*Chain

	pending        map[string]*Chain // victim\x00monitor → requested, not yet rolled back
	awaitingReexec map[string]*Chain
	lastDetect     map[string]detection // monitor → latest inversion-detected

	events   []trace.Event
	lastTick simtime.Ticks
	metrics  *Metrics
	dropped  int
}

type detection struct {
	at        simtime.Ticks
	requester string
}

type threadState struct {
	name  string
	prio  int64
	stack []Span // open hold spans, outermost first
	block *Span  // open blocking span, nil when not blocked

	// One suspended hold span during Object.wait: the monitor is released
	// at wait-start and the span resumes (as a fresh interval) at wait-end.
	waitMonitor string
	waitIndex   int
	waitDepth   int
	inWait      bool
}

// NewObserver returns an empty observer.
func NewObserver() *Observer {
	return &Observer{
		threads:        make(map[string]*threadState),
		pending:        make(map[string]*Chain),
		awaitingReexec: make(map[string]*Chain),
		lastDetect:     make(map[string]detection),
		metrics:        newMetrics(),
	}
}

func (o *Observer) thread(name string) *threadState {
	if ts, ok := o.threads[name]; ok {
		return ts
	}
	ts := &threadState{name: name}
	o.threads[name] = ts
	o.order = append(o.order, name)
	return ts
}

func chainKey(victim, monitor string) string { return victim + "\x00" + monitor }

// Emit consumes one event. Implements trace.Sink.
func (o *Observer) Emit(e trace.Event) {
	o.events = append(o.events, e)
	if e.At > o.lastTick {
		o.lastTick = e.At
	}
	switch e.Kind {
	case trace.ThreadStart:
		ts := o.thread(e.Thread)
		ts.prio = e.N

	case trace.ThreadEnd:
		o.threadEnd(e)

	case trace.MonitorBlocked:
		o.blocked(e)

	case trace.MonitorAcquired:
		o.acquired(e)

	case trace.MonitorExit:
		o.exited(e)

	case trace.WaitStart:
		o.waitStart(e)

	case trace.WaitEnd:
		o.waitEnd(e)

	case trace.InversionDetected:
		o.lastDetect[e.Object] = detection{at: e.At, requester: e.Thread}

	case trace.RevokeRequested:
		o.revokeRequested(e)

	case trace.RevokeDenied:
		o.revokeDenied(e)

	case trace.Rollback:
		o.rollback(e)

	case trace.Reexecution:
		o.reexecution(e)
	}
}

func (o *Observer) threadEnd(e trace.Event) {
	ts := o.thread(e.Thread)
	if ts.block != nil {
		// The thread ended while blocked: the wait never resolved.
		b := *ts.block
		b.End = e.At
		b.Unresolved = true
		ts.block = nil
		o.spans = append(o.spans, b)
	}
	for i := len(ts.stack) - 1; i >= 0; i-- {
		s := ts.stack[i]
		s.End = e.At
		s.Unresolved = true
		o.spans = append(o.spans, s)
	}
	ts.stack = ts.stack[:0]
	ts.inWait = false
}

func (o *Observer) blocked(e trace.Event) {
	ts := o.thread(e.Thread)
	if ts.block != nil {
		if ts.block.Monitor == e.Object {
			// Re-blocked on the same monitor (requeue after an interrupt or
			// a preempted grant): one logical wait, refresh the cause.
			if e.Other != "" {
				ts.block.Holder = e.Other
			}
			return
		}
		// Blocked on a different monitor without resolving the previous
		// wait: close the stale span as unresolved.
		b := *ts.block
		b.End = e.At
		b.Unresolved = true
		o.spans = append(o.spans, b)
	}
	ts.block = &Span{Kind: SpanBlock, Thread: e.Thread, Monitor: e.Object, Start: e.At, Holder: e.Other}
}

func (o *Observer) acquired(e trace.Event) {
	ts := o.thread(e.Thread)
	if ts.block != nil && ts.block.Monitor == e.Object {
		b := *ts.block
		b.End = e.At
		ts.block = nil
		o.spans = append(o.spans, b)
		o.metrics.observeBlocking(b)
	}
	ts.stack = append(ts.stack, Span{
		Kind: SpanHold, Thread: e.Thread, Monitor: e.Object, Start: e.At, Depth: len(ts.stack) + 1,
	})
}

func (o *Observer) exited(e trace.Event) {
	ts := o.thread(e.Thread)
	if n := len(ts.stack); n > 0 && ts.stack[n-1].Monitor == e.Object {
		s := ts.stack[n-1]
		s.End = e.At
		ts.stack = ts.stack[:n-1]
		o.spans = append(o.spans, s)
		o.metrics.observeHold(s)
		return
	}
	o.dropped++
}

func (o *Observer) waitStart(e trace.Event) {
	ts := o.thread(e.Thread)
	// Close the topmost span of the waited monitor: the wait releases it,
	// so the held interval ends here and resumes at wait-end.
	for i := len(ts.stack) - 1; i >= 0; i-- {
		if ts.stack[i].Monitor != e.Object {
			continue
		}
		s := ts.stack[i]
		s.End = e.At
		o.spans = append(o.spans, s)
		o.metrics.observeHold(s)
		ts.waitMonitor = e.Object
		ts.waitIndex = i
		ts.waitDepth = s.Depth
		ts.inWait = true
		ts.stack = append(ts.stack[:i], ts.stack[i+1:]...)
		return
	}
	o.dropped++
}

func (o *Observer) waitEnd(e trace.Event) {
	ts := o.thread(e.Thread)
	if !ts.inWait || ts.waitMonitor != e.Object {
		o.dropped++
		return
	}
	s := Span{Kind: SpanHold, Thread: e.Thread, Monitor: e.Object, Start: e.At, Depth: ts.waitDepth}
	i := ts.waitIndex
	if i > len(ts.stack) {
		i = len(ts.stack)
	}
	ts.stack = append(ts.stack[:i], append([]Span{s}, ts.stack[i:]...)...)
	ts.inWait = false
}

func (o *Observer) revokeRequested(e trace.Event) {
	c := &Chain{
		ID:          len(o.chains) + 1,
		Requester:   e.Other,
		Victim:      e.Thread,
		Monitor:     e.Object,
		Reason:      e.Detail,
		RequestedAt: e.At,
	}
	if d, ok := o.lastDetect[e.Object]; ok && d.requester == e.Other {
		c.HasDetected = true
		c.DetectedAt = d.at
	}
	o.chains = append(o.chains, c)
	// A newer request supersedes an undelivered one for the same victim and
	// monitor (core keeps a single pending revocation per task); the
	// superseded chain stays in the list, incomplete.
	o.pending[chainKey(e.Thread, e.Object)] = c
}

func (o *Observer) revokeDenied(e trace.Event) {
	key := chainKey(e.Thread, e.Object)
	if c, ok := o.pending[key]; ok {
		c.Denied = true
		delete(o.pending, key)
		return
	}
	o.chains = append(o.chains, &Chain{
		ID: len(o.chains) + 1, Victim: e.Thread, Monitor: e.Object,
		RequestedAt: e.At, Denied: true,
	})
}

func (o *Observer) rollback(e trace.Event) {
	ts := o.thread(e.Thread)
	// Every rollback event carries the discarded work in N (0 for a
	// preempted pending grant), so the histogram total reconciles exactly
	// with core.Stats.WastedTicks.
	o.metrics.observeRollback(e.Thread, e.N)

	// An interrupted wait on an inner monitor ends with the rollback: the
	// victim re-executes from the section start instead of acquiring.
	if ts.block != nil {
		b := *ts.block
		b.End = e.At
		ts.block = nil
		o.spans = append(o.spans, b)
		o.metrics.observeBlocking(b)
	}

	// Close the doomed span nest: everything from the outermost frame of
	// the revoked monitor inward (reentrant acquisitions of the same
	// monitor sit above it in the stack and roll back with it).
	target := -1
	for i, s := range ts.stack {
		if s.Monitor == e.Object {
			target = i
			break
		}
	}
	closed := false
	if target >= 0 {
		for i := len(ts.stack) - 1; i >= target; i-- {
			s := ts.stack[i]
			s.End = e.At
			s.RolledBack = true
			if i == target {
				s.Wasted = simtime.Ticks(e.N)
			}
			o.spans = append(o.spans, s)
			o.metrics.observeHold(s)
		}
		ts.stack = ts.stack[:target]
		closed = true
	}

	key := chainKey(e.Thread, e.Object)
	c, ok := o.pending[key]
	if ok {
		delete(o.pending, key)
		c.RolledBack = true
		c.RolledBackAt = e.At
		c.Wasted = simtime.Ticks(e.N)
		if closed {
			o.awaitingReexec[key] = c
		} else {
			c.PendingGrant = true
		}
	}
	if !ok && !closed {
		o.dropped++ // rollback with neither an open span nor a request
	}
}

func (o *Observer) reexecution(e trace.Event) {
	o.metrics.observeReexecution(e.Thread)
	key := chainKey(e.Thread, e.Object)
	if c, ok := o.awaitingReexec[key]; ok {
		c.Reexecuted = true
		c.ReexecutedAt = e.At
		delete(o.awaitingReexec, key)
	}
}

// ---------------------------------------------------------------------------
// Queries.

// Spans returns every closed span, in close order.
func (o *Observer) Spans() []Span { return o.spans }

// AllSpans returns closed spans plus still-open ones materialized as
// unresolved spans ending at the last observed tick — the complete picture
// an exporter should render.
func (o *Observer) AllSpans() []Span {
	out := make([]Span, len(o.spans), len(o.spans)+8)
	copy(out, o.spans)
	for _, name := range o.order {
		ts := o.threads[name]
		if ts.block != nil {
			b := *ts.block
			b.End = o.lastTick
			b.Unresolved = true
			out = append(out, b)
		}
		for _, s := range ts.stack {
			s.End = o.lastTick
			s.Unresolved = true
			out = append(out, s)
		}
	}
	return out
}

// Chains returns every revocation chain, complete or not, in request order.
func (o *Observer) Chains() []*Chain { return o.chains }

// Events returns the retained raw event stream.
func (o *Observer) Events() []trace.Event { return o.events }

// Metrics returns the registry of latency histograms.
func (o *Observer) Metrics() *Metrics { return o.metrics }

// ThreadNames returns thread names in first-seen order.
func (o *Observer) ThreadNames() []string { return o.order }

// ThreadPriority returns the base priority recorded at thread start.
func (o *Observer) ThreadPriority(name string) int64 {
	if ts, ok := o.threads[name]; ok {
		return ts.prio
	}
	return 0
}

// Dropped reports how many events could not be joined to an open span.
func (o *Observer) Dropped() int { return o.dropped }
