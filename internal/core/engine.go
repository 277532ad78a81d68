package core

import (
	"fmt"

	"repro/internal/heap"
	"repro/internal/monitor"
	"repro/internal/race"
	"repro/internal/trace"
)

// This file is the execution-engine interface: the hooks the bytecode
// interpreter (internal/interp) uses to run synchronized sections without
// the Go-closure Synchronized wrapper. The engine manages its own control
// transfer (the paper's injected rollback-exception scopes), while the
// runtime keeps owning detection, logging, undo and monitor bookkeeping.
//
// Protocol:
//
//	t.EngineEnter(m)                 // monitorenter
//	...barriered loads/stores...
//	t.EngineExit(m)                  // monitorexit
//
// run inside a function guarded by recover; a delivered revocation panics
// through the engine, which converts it with AsRevocation, calls
// EngineUnwind to discard the doomed core frames, and transfers control
// back to its own representation of the section entry.

// RevokeInfo describes a delivered revocation as seen by an engine.
type RevokeInfo struct {
	// Target is the core frame depth of the section to re-execute: every
	// frame at depth >= Target has been rolled back and its monitors
	// released.
	Target int
	// Reason is "priority-inversion" or "deadlock".
	Reason string
}

// AsRevocation converts a recovered panic value into a RevokeInfo. ok is
// false for foreign panics, which the engine must re-raise.
func AsRevocation(r any) (RevokeInfo, bool) {
	if s, ok := r.(rollbackSignal); ok {
		return RevokeInfo{Target: s.target, Reason: s.reason}, true
	}
	return RevokeInfo{}, false
}

// EngineEnter acquires m and pushes a section frame — the monitorenter
// operation. It may block; it may deliver a pending revocation (panicking
// with the value AsRevocation recognizes).
func (t *Task) EngineEnter(m *monitor.Monitor) {
	t.enter(m)
}

// EngineExit commits and exits the top section frame — the monitorexit
// operation. It panics if m is not the top frame's monitor.
func (t *Task) EngineExit(m *monitor.Monitor) {
	t.commitTop(m)
}

// EngineEnterNonRevocable is EngineEnter fused with the static pre-mark
// for sections analysis proved non-revocable. The compiling tier resolves
// the section fact once at compile time and calls this instead of doing a
// per-execution fact lookup followed by PreMarkNonRevocable; the
// externally observable behavior (blocking, stats, trace events) is
// identical by construction.
func (t *Task) EngineEnterNonRevocable(m *monitor.Monitor, reason string) {
	t.enter(m)
	t.PreMarkNonRevocable(reason)
}

// EngineFrameDepth returns the current section nesting depth; the frame a
// subsequent EngineEnter creates will have index EngineFrameDepth().
func (t *Task) EngineFrameDepth() int { return len(t.frames) }

// MarkIrrevocable makes every enclosing synchronized section
// non-revocable, like a native-method call would (§2.2). Engines use it
// for code compiled without rollback scopes.
func (t *Task) MarkIrrevocable(reason string) {
	if len(t.frames) > 0 {
		t.markNonRevocable(reason)
	}
}

// PreMarkNonRevocable marks the just-entered (top) section's monitor
// non-revocable because static analysis proved a native call, volatile
// read, or wait is reachable inside it. Unlike MarkIrrevocable it touches
// only the top frame: outward propagation is unnecessary, since any
// enclosing section statically containing this one carries the same trigger
// in its own reachable set and received its own pre-mark. When every active
// frame is pre-marked, the whole nest runs with zero undo-log entries.
func (t *Task) PreMarkNonRevocable(reason string) {
	if len(t.frames) == 0 {
		return
	}
	f := &t.frames[len(t.frames)-1]
	if nr, _ := f.mon.NonRevocable(); nr {
		return
	}
	f.mon.MarkNonRevocable(reason)
	t.rt.stats.StaticPreMarks++
	t.rt.sch.Emit(trace.Event{Kind: trace.StaticPreMark, Thread: t.Name(), Object: f.mon.Name(), Detail: reason})
}

// RegisterAllocObject logs a whole-allocation undo entry for an object
// allocated while logging is active. Rollback restores the object to its
// allocation-time slots, which lets stores the static analysis proved
// target a fresh object skip their write barriers.
func (t *Task) RegisterAllocObject(o *heap.Object) {
	if t.logging() {
		t.log.LogAllocObject(o)
	}
}

// RegisterAllocArray is RegisterAllocObject for arrays.
func (t *Task) RegisterAllocArray(a *heap.Array) {
	if t.logging() {
		t.log.LogAllocArray(a)
	}
}

// CountRawStore records the execution of a statically elided store — a
// write that ran barrier-free because analysis proved logging could never
// be needed.
func (t *Task) CountRawStore() { t.rt.stats.RawStores++ }

// CountConfinedElision records the execution of a certified confined
// MONITORENTER or MONITOREXIT as a charge-only no-op: analysis proved no
// second thread can ever reach the monitor's object.
func (t *Task) CountConfinedElision() { t.rt.stats.ConfinedElisions++ }

// SetLockSite names the bytecode site of the next monitor acquisition for
// the wait-for-graph observer's cycle reports. The interpreter calls it
// before each monitorenter when Config.OnDeadlock is set.
func (t *Task) SetLockSite(method string, pc int) {
	t.lockMethod, t.lockPC = method, pc
}

// ---------------------------------------------------------------------------
// Race-sanitizer hooks (Config.Race != nil; all no-ops otherwise).

// SetRaceSite names the bytecode site of the next barriered access for race
// reports. The interpreter calls it before each heap-access instruction
// when the sanitizer is enabled.
func (t *Task) SetRaceSite(method string, pc int) {
	t.raceMethod, t.racePC = method, pc
}

// raceSite returns the current access site for the sanitizer.
func (t *Task) raceSite() race.Site {
	return race.Site{Method: t.raceMethod, PC: t.racePC}
}

// ---------------------------------------------------------------------------
// Profiler hooks (Config.Profiler != nil; all no-ops otherwise). The
// interpreter mirrors its frame stack into the profiler: SetProfSite before
// every instruction, ProfPush at method entry, ProfPopTo after any pop
// (return, exception unwind, rollback discard).

// SetProfSite stamps the current bytecode pc; subsequent tick charges are
// attributed to (current method, pc).
func (t *Task) SetProfSite(pc int) {
	if t.tp != nil {
		t.tp.SetPC(pc)
	}
}

// ProfPush enters method fn in the profiler's call tree.
func (t *Task) ProfPush(fn string) {
	if t.tp != nil {
		t.tp.Push(fn)
	}
}

// ProfPopTo truncates the profiler's call stack to depth method frames.
func (t *Task) ProfPopTo(depth int) {
	if t.tp != nil {
		t.tp.PopTo(depth)
	}
}

// ProfDepth returns the profiler's current method-frame depth (0 when
// profiling is off — engines record it before pushing frames and restore
// it when their own stack unwinds).
func (t *Task) ProfDepth() int {
	if t.tp != nil {
		return t.tp.Depth()
	}
	return 0
}

// RaceRawWriteField records a barrier-elided field store with the
// sanitizer. Raw stores survive rollback (their undo entries, if any, are
// whole-allocation ones), so the sanitizer marks them non-retractable.
func (t *Task) RaceRawWriteField(o *heap.Object, idx int) {
	if d := t.rt.cfg.Race; d != nil {
		d.RawWrite(t.th.ID(), race.Slot{Kind: heap.KindObject, ID: o.ID(), Idx: idx}, t.raceSite())
	}
}

// RaceRawWriteElem is RaceRawWriteField for array elements.
func (t *Task) RaceRawWriteElem(a *heap.Array, idx int) {
	if d := t.rt.cfg.Race; d != nil {
		d.RawWrite(t.th.ID(), race.Slot{Kind: heap.KindArray, ID: a.ID(), Idx: idx}, t.raceSite())
	}
}

// RaceRawWriteStatic is RaceRawWriteField for statics.
func (t *Task) RaceRawWriteStatic(idx int) {
	if d := t.rt.cfg.Race; d != nil {
		d.RawWrite(t.th.ID(), race.Slot{Kind: heap.KindStatic, Idx: idx}, t.raceSite())
	}
}

// EngineUnwind discards the bookkeeping of the rolled-back frames
// [target:] after a recovered revocation (their heap effects and monitors
// were already handled at delivery), records the re-execution, and applies
// the deadlock backoff. It returns the retry attempt count of the target
// section.
func (t *Task) EngineUnwind(info RevokeInfo) int {
	if info.Target < 0 || info.Target >= len(t.frames) {
		panic(fmt.Sprintf("core: EngineUnwind target %d with %d frames", info.Target, len(t.frames)))
	}
	f := t.frames[info.Target]
	t.frames = t.frames[:info.Target]
	t.clampNonRevBelow()
	t.reexecute(f, info.Reason, "engine")
	return f.attempts
}
