package obs

import (
	"encoding/json"
	"io"
	"sort"

	"repro/internal/trace"
)

// Perfetto / Chrome trace-event export. The emitted JSON is the legacy
// Chrome "JSON Array Format" ({"traceEvents": [...]}), which
// ui.perfetto.dev and chrome://tracing both ingest:
//
//   - one process (pid 1) for the VM, one track (tid) per VM thread, named
//     and sorted by descending priority;
//   - complete ("X") slices for monitor-held and blocked-on-monitor spans;
//   - instant ("i") events for detections, denials, rollbacks and deadlock
//     resolutions;
//   - flow arrows ("s" → "f") from each revoke request (requester's track)
//     to the rollback it caused (victim's track).
//
// Virtual-time ticks map 1:1 onto microseconds, the format's time unit.

const perfettoPid = 1

// perfettoInstants are the event kinds rendered as instant markers.
var perfettoInstants = map[trace.Kind]string{
	trace.InversionDetected: "inversion-detected",
	trace.RevokeRequested:   "revoke-requested",
	trace.RevokeDenied:      "revoke-denied",
	trace.Rollback:          "rollback",
	trace.Reexecution:       "re-execution",
	trace.NonRevocable:      "non-revocable",
	trace.StaticPreMark:     "static-premark",
	trace.RaceDetected:      "race-detected",
	trace.DeadlockDetected:  "deadlock-detected",
	trace.DeadlockBroken:    "deadlock-broken",
	trace.Notify:            "notify",
	trace.NativeCall:        "native-call",
}

// WritePerfetto serializes the observer's reconstruction as a Perfetto
// trace.
func WritePerfetto(w io.Writer, o *Observer) error {
	var events []map[string]any
	add := func(e map[string]any) { events = append(events, e) }

	// Track identity: tid by first-seen order, display order by priority.
	tids := make(map[string]int, len(o.order))
	for i, name := range o.order {
		tids[name] = i + 1
	}
	tid := func(thread string) int {
		if t, ok := tids[thread]; ok {
			return t
		}
		// A thread seen only inside span attribution (adversarial stream):
		// give it a stable track past the known ones.
		t := len(tids) + 1
		tids[thread] = t
		o.order = append(o.order, thread)
		return t
	}

	add(map[string]any{
		"ph": "M", "pid": perfettoPid, "name": "process_name",
		"args": map[string]any{"name": "rvm revocation runtime"},
	})
	byPrio := append([]string(nil), o.order...)
	sort.SliceStable(byPrio, func(i, j int) bool {
		return o.ThreadPriority(byPrio[i]) > o.ThreadPriority(byPrio[j])
	})
	for rank, name := range byPrio {
		add(map[string]any{
			"ph": "M", "pid": perfettoPid, "tid": tid(name), "name": "thread_name",
			"args": map[string]any{"name": name},
		})
		add(map[string]any{
			"ph": "M", "pid": perfettoPid, "tid": tid(name), "name": "thread_sort_index",
			"args": map[string]any{"sort_index": rank},
		})
	}

	for _, s := range o.AllSpans() {
		name := "hold " + s.Monitor
		cat := "monitor"
		if s.Kind == SpanBlock {
			name = "blocked " + s.Monitor
			cat = "blocked"
		}
		args := map[string]any{"monitor": s.Monitor}
		if s.Kind == SpanHold {
			args["depth"] = s.Depth
			if s.RolledBack {
				args["rolled_back"] = true
				args["wasted_ticks"] = int64(s.Wasted)
			}
		} else if s.Holder != "" {
			args["holder"] = s.Holder
		}
		if s.Unresolved {
			args["unresolved"] = true
		}
		dur := int64(s.Duration())
		if dur < 0 {
			dur = 0
		}
		add(map[string]any{
			"ph": "X", "pid": perfettoPid, "tid": tid(s.Thread), "name": name, "cat": cat,
			"ts": int64(s.Start), "dur": dur, "args": args,
		})
	}

	for _, e := range o.events {
		name, ok := perfettoInstants[e.Kind]
		if !ok || e.Thread == "" {
			continue
		}
		args := map[string]any{"detail": e.Detail}
		if l := trace.AuxLabel(e.Kind); l != "" {
			args[l] = e.Aux
		}
		if e.Object != "" {
			args["monitor"] = e.Object
		}
		if e.Other != "" {
			args["other"] = e.Other
		}
		add(map[string]any{
			"ph": "i", "s": "t", "pid": perfettoPid, "tid": tid(e.Thread),
			"name": name, "cat": "revocation", "ts": int64(e.At), "args": args,
		})
	}

	// Counter tracks ("C" events): runnable threads, held monitors, total
	// undo-log depth. Derived from the event stream and the reconstructed
	// spans, so profiler output and Perfetto traces line up in the UI.
	counter := func(ts int64, name, key string, v int64) {
		add(map[string]any{
			"ph": "C", "pid": perfettoPid, "name": name, "cat": "counter",
			"ts": ts, "args": map[string]any{key: v},
		})
	}

	// Runnable threads: a per-thread state machine over the event stream.
	// Blocking events park a thread; acquisition, wait-end and rollback
	// delivery resume it. Timestamps are nondecreasing in emit order;
	// samples coalesce to one per distinct timestamp (e.g. both threads
	// starting at tick 0 is one jump to 2, not two samples).
	runnableState := make(map[string]bool)
	runnable, lastRunnable := int64(0), int64(0)
	runnableTs := int64(-1)
	flushRunnable := func() {
		if runnableTs >= 0 && runnable != lastRunnable {
			counter(runnableTs, "runnable threads", "runnable", runnable)
			lastRunnable = runnable
		}
	}
	for _, e := range o.events {
		if e.Thread == "" {
			continue
		}
		if ts := int64(e.At); ts != runnableTs {
			flushRunnable()
			runnableTs = ts
		}
		switch e.Kind {
		case trace.ThreadStart:
			if !runnableState[e.Thread] {
				runnableState[e.Thread] = true
				runnable++
			}
		case trace.ThreadEnd, trace.MonitorBlocked, trace.WaitStart:
			if runnableState[e.Thread] {
				runnableState[e.Thread] = false
				runnable--
			}
		case trace.MonitorAcquired, trace.WaitEnd, trace.Rollback:
			if _, seen := runnableState[e.Thread]; seen && !runnableState[e.Thread] {
				runnableState[e.Thread] = true
				runnable++
			}
		}
	}
	flushRunnable()

	// Held monitors: boundary sweep over the reconstructed hold spans,
	// counting monitors with at least one covering span. Exits sort before
	// acquisitions at the same tick so a direct handoff is flat.
	type edge struct {
		ts  int64
		mon string
		d   int
	}
	var edges []edge
	for _, s := range o.AllSpans() {
		if s.Kind != SpanHold {
			continue
		}
		edges = append(edges, edge{int64(s.Start), s.Monitor, +1})
		if !s.Unresolved {
			edges = append(edges, edge{int64(s.End), s.Monitor, -1})
		}
	}
	sort.SliceStable(edges, func(i, j int) bool {
		if edges[i].ts != edges[j].ts {
			return edges[i].ts < edges[j].ts
		}
		return edges[i].d < edges[j].d
	})
	holdCount := make(map[string]int)
	held := int64(0)
	for i, ed := range edges {
		prevCover := holdCount[ed.mon] > 0
		holdCount[ed.mon] += ed.d
		if nowCover := holdCount[ed.mon] > 0; nowCover != prevCover {
			if nowCover {
				held++
			} else {
				held--
			}
		}
		// Coalesce: emit once per distinct timestamp, after its last edge.
		if i+1 == len(edges) || edges[i+1].ts != ed.ts {
			counter(ed.ts, "held monitors", "held", held)
		}
	}

	// Total undo-log depth: MonitorAcquired/MonitorExit carry the emitting
	// thread's undo-log length in N; Rollback carries the replayed entry
	// count in Aux. Summed across threads.
	logDepth := make(map[string]int64)
	totalDepth, lastDepth := int64(0), int64(0)
	depthTs := int64(-1)
	flushDepth := func() {
		if depthTs >= 0 && totalDepth != lastDepth {
			counter(depthTs, "undo-log entries", "entries", totalDepth)
			lastDepth = totalDepth
		}
	}
	for _, e := range o.events {
		if e.Thread == "" {
			continue
		}
		if ts := int64(e.At); ts != depthTs {
			flushDepth()
			depthTs = ts
		}
		switch e.Kind {
		case trace.MonitorAcquired, trace.MonitorExit:
			totalDepth += e.N - logDepth[e.Thread]
			logDepth[e.Thread] = e.N
		case trace.Rollback:
			if e.Aux > 0 {
				d := logDepth[e.Thread] - e.Aux
				if d < 0 {
					d = 0
				}
				totalDepth += d - logDepth[e.Thread]
				logDepth[e.Thread] = d
			}
		}
	}
	flushDepth()

	// Flow arrows: revoke request → rollback.
	for _, c := range o.chains {
		if !c.RolledBack {
			continue
		}
		from := c.Requester
		if from == "" {
			from = c.Victim
		}
		add(map[string]any{
			"ph": "s", "pid": perfettoPid, "tid": tid(from), "id": c.ID,
			"name": "revocation", "cat": "revoke-flow", "ts": int64(c.RequestedAt),
		})
		add(map[string]any{
			"ph": "f", "bp": "e", "pid": perfettoPid, "tid": tid(c.Victim), "id": c.ID,
			"name": "revocation", "cat": "revoke-flow", "ts": int64(c.RolledBackAt),
		})
	}

	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
	})
}
