package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/sched"
	"repro/internal/simtime"
	"repro/internal/trace"
)

// TestEngineEnterExitAllocFree pins the engine-level monitorenter and
// monitorexit — the path every interpreted synchronized section takes — at
// zero allocations per pair when nothing subscribes to the event stream.
// The config is the one rvmrun builds for a plain run, with trace.Discard
// as the tracer: a discarding sink must count as no subscriber.
func TestEngineEnterExitAllocFree(t *testing.T) {
	paths := []struct {
		name string
		pair func(tk *core.Task, m *monitor.Monitor)
	}{
		{"EngineEnter+EngineExit", func(tk *core.Task, m *monitor.Monitor) {
			tk.EngineEnter(m)
			tk.EngineExit(m)
		}},
		{"EngineEnterNonRevocable+EngineExit", func(tk *core.Task, m *monitor.Monitor) {
			tk.EngineEnterNonRevocable(m, "native-call")
			tk.EngineExit(m)
		}},
	}
	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			rt := core.New(core.Config{
				Mode:              core.Revocation,
				TrackDependencies: true,
				DeadlockDetection: true,
				Tracer:            trace.Discard,
				Sched:             sched.Config{Quantum: simtime.Ticks(1000)},
			})
			m := rt.NewMonitor("m")
			var allocs float64
			rt.Spawn("t", sched.NormPriority, func(tk *core.Task) {
				allocs = testing.AllocsPerRun(1000, func() { p.pair(tk, m) })
			})
			if err := rt.Run(); err != nil {
				t.Fatal(err)
			}
			if allocs != 0 {
				t.Errorf("%s allocates %.2f times per pair with no subscriber", p.name, allocs)
			}
		})
	}
}
