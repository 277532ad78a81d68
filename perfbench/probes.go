package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/fr"
	"repro/internal/heap"
	"repro/internal/monitor"
	"repro/internal/sched"
	"repro/internal/simtime"
	"repro/internal/trace"
)

// unitCosts maps each probe's metric name to host nanoseconds per
// operation of one layer, timed in isolation through public functions in
// this process. The ledger multiplies them by a request's exact counts.
type unitCosts map[string]float64

// probes lists the unit-cost probes in report order.
var probes = []struct {
	name string
	fn   func() (float64, error)
}{
	// sched: one context switch (thread → scheduler → thread handoff).
	{"sched.switch_ns", func() (float64, error) { return probeSwitch(4000) }},
	// monitor: TryEnter + Exit, uncontended thin lock.
	{"monitor.enter_exit_ns", func() (float64, error) { return probeMonitor(200000) }},
	// core: Task.EngineEnter + EngineExit, uncontended.
	{"core.engine_enter_exit_ns", func() (float64, error) { return probeEngine(100000) }},
	// core: in-section logging write barrier at steady state.
	{"core.write_barrier_ns", func() (float64, error) { return probeBarrier(core.Revocation, 200000, true) }},
	// core: write barrier fast path (no logging: unmodified VM).
	{"core.write_fast_ns", func() (float64, error) { return probeBarrier(core.Unmodified, 200000, true) }},
	// core: in-section read barrier with dependency tracking.
	{"core.read_barrier_ns", func() (float64, error) { return probeBarrier(core.Revocation, 200000, false) }},
	// undo: one restored location of a revoked section.
	{"undo.rollback_ns_per_entry", func() (float64, error) { return probeRollback(20, 1000) }},
	// fr: one Recorder.Emit at steady state.
	{"fr.append_ns", func() (float64, error) { return probeFRAppend(100000) }},
}

// probeReps is how often calibrate runs each probe; it keeps the median.
const probeReps = 3

// calibrate times every probe probeReps times.
func calibrate() (unitCosts, error) {
	u := unitCosts{}
	for _, p := range probes {
		var xs []float64
		for r := 0; r < probeReps; r++ {
			ns, err := p.fn()
			if err != nil {
				return nil, fmt.Errorf("probe %s: %w", p.name, err)
			}
			xs = append(xs, ns)
		}
		u[p.name] = quantile(xs, 0.5)
	}
	return u, nil
}

// medianCosts combines calibrations taken at different moments, probe by
// probe.
func medianCosts(cs []unitCosts) unitCosts {
	u := unitCosts{}
	for _, p := range probes {
		var xs []float64
		for _, c := range cs {
			xs = append(xs, c[p.name])
		}
		u[p.name] = quantile(xs, 0.5)
	}
	return u
}

// hugeQuantum keeps a probe's task from being preempted by its own
// virtual-time charges.
const hugeQuantum simtime.Ticks = 1 << 40

// probeSwitch: two tasks hand the processor back and forth n times each
// with Thread.Yield; the result is wall time per context switch.
func probeSwitch(n int) (float64, error) {
	rt := core.New(core.Config{Mode: core.Revocation, NoCosts: true})
	for _, name := range []string{"a", "b"} {
		rt.Spawn(name, sched.NormPriority, func(tk *core.Task) {
			for i := 0; i < n; i++ {
				tk.Thread().Yield()
			}
		})
	}
	t0 := time.Now()
	if err := rt.Run(); err != nil {
		return 0, err
	}
	return perOp(time.Since(t0), rt.Stats().ContextSwitches), nil
}

// inTask runs body on one task of a fresh runtime and returns what it
// reports.
func inTask(cfg core.Config, body func(tk *core.Task, m *monitor.Monitor, rt *core.Runtime) float64) (float64, error) {
	rt := core.New(cfg)
	m := rt.NewMonitor("probe")
	var ns float64
	rt.Spawn("probe", sched.NormPriority, func(tk *core.Task) { ns = body(tk, m, rt) })
	if err := rt.Run(); err != nil {
		return 0, err
	}
	return ns, nil
}

// probeMonitor times the lock word alone: TryEnter + Exit on an
// uncontended monitor, per pair.
func probeMonitor(n int) (float64, error) {
	return inTask(core.Config{Mode: core.Revocation, NoCosts: true}, func(tk *core.Task, m *monitor.Monitor, _ *core.Runtime) float64 {
		th := tk.Thread()
		t0 := time.Now()
		for i := 0; i < n; i++ {
			m.TryEnter(th)
			m.Exit(th)
		}
		return perOp(time.Since(t0), int64(n))
	})
}

// probeEngine times the engine-level enter and exit every interpreted
// monitorenter/monitorexit takes, per pair, under rvmrun's configuration.
func probeEngine(n int) (float64, error) {
	cfg := core.Config{Mode: core.Revocation, TrackDependencies: true, DeadlockDetection: true,
		Sched: sched.Config{Quantum: hugeQuantum}}
	return inTask(cfg, func(tk *core.Task, m *monitor.Monitor, _ *core.Runtime) float64 {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			tk.EngineEnter(m)
			tk.EngineExit(m)
		}
		return perOp(time.Since(t0), int64(n))
	})
}

// probeBarrier times paper-cells' barriers: inside a synchronized section
// with the cells' tick costs, cyclic stores (write) or loads (read) over a
// 1024-element array the section has already written. On the modified VM,
// with dependency tracking, writes take the deduplicated logging path and
// reads see only the task's own speculative data; on the unmodified VM
// writes take the fast path.
func probeBarrier(mode core.Mode, n int, write bool) (float64, error) {
	cfg := core.Config{Mode: mode, TrackDependencies: mode == core.Revocation, CostRead: cellCostRW, CostWrite: cellCostRW,
		Sched: sched.Config{Quantum: hugeQuantum}}
	return inTask(cfg, func(tk *core.Task, m *monitor.Monitor, rt *core.Runtime) float64 {
		a := rt.Heap().AllocArray(cellBufferLen)
		var ns float64
		tk.Synchronized(m, func() {
			for i := 0; i < cellBufferLen; i++ {
				tk.WriteElem(a, i, heap.Word(i))
			}
			t0 := time.Now()
			if write {
				for i := 0; i < n; i++ {
					tk.WriteElem(a, i%cellBufferLen, heap.Word(i))
				}
			} else {
				var sink heap.Word
				for i := 0; i < n; i++ {
					sink += tk.ReadElem(a, i%cellBufferLen)
				}
				probeSink = sink
			}
			ns = perOp(time.Since(t0), int64(n))
		})
		return ns
	})
}

// probeSink keeps the read-barrier loop from being optimized away.
var probeSink heap.Word

// probeRollback times revocations of a low-priority section that wrote
// slots distinct array elements: the high-priority task requests the
// monitor, the low task rolls its section back (reverse replay of the undo
// log) and hands the monitor over. The result is wall time per restored
// location, fixed costs of the handoff included.
func probeRollback(rounds, slots int) (float64, error) {
	rt := core.New(core.Config{Mode: core.Revocation, NoCosts: true, Sched: sched.Config{Quantum: hugeQuantum}})
	a := rt.Heap().AllocArray(slots)
	m := rt.NewMonitor("probe")
	ready, done := false, false
	var d time.Duration
	rt.Spawn("low", sched.LowPriority, func(tk *core.Task) {
		for !done {
			tk.Synchronized(m, func() {
				if done {
					return
				}
				for k := 0; k < slots; k++ {
					tk.WriteElem(a, k, heap.Word(k))
				}
				ready = true
				for !done && ready {
					tk.Thread().Yield()
					tk.YieldPoint() // delivers the pending revocation
				}
			})
		}
	})
	rt.Spawn("high", sched.HighPriority, func(tk *core.Task) {
		for i := 0; i < rounds; i++ {
			for !ready {
				tk.Thread().Yield()
			}
			ready = false
			t0 := time.Now()
			tk.Synchronized(m, func() {})
			d += time.Since(t0)
		}
		done = true
	})
	if err := rt.Run(); err != nil {
		return 0, err
	}
	undone := rt.Stats().EntriesUndone
	if undone < int64(rounds*slots) {
		return 0, fmt.Errorf("%d locations restored in %d rollbacks of %d", undone, rounds, slots)
	}
	return perOp(d, undone), nil
}

// probeFRAppend times one steady-state flight-recorder append: every
// string interned, the default triggers checking each event.
func probeFRAppend(n int) (float64, error) {
	rec := fr.New(fr.Config{Triggers: fr.DefaultTriggers()})
	events := []trace.Event{
		{Kind: trace.MonitorBlocked, Thread: "hi0", Object: "Account#3"},
		{Kind: trace.MonitorAcquired, Thread: "hi0", Object: "Account#3"},
		{Kind: trace.MonitorExit, Thread: "hi0", Object: "Account#3"},
		{Kind: trace.MonitorBlocked, Thread: "lo0", Object: "Account#3"},
		{Kind: trace.MonitorAcquired, Thread: "lo0", Object: "Account#3"},
		{Kind: trace.MonitorExit, Thread: "lo0", Object: "Account#3"},
	}
	for _, e := range events {
		rec.Emit(e)
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		e := events[i%len(events)]
		e.At = simtime.Ticks(i)
		rec.Emit(e)
	}
	return perOp(time.Since(t0), int64(n)), nil
}

func perOp(d time.Duration, n int64) float64 {
	if n <= 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}
