package core

import (
	"fmt"
	"testing"

	"repro/internal/prof"
	"repro/internal/sched"
	"repro/internal/simtime"
)

// TestTaskHeadroomGates: the task's headroom is the thread's while nothing
// needs a charge's yield point, and 0 while a revocation is pending or a
// profiler is attached, so those charges take the full path.
func TestTaskHeadroomGates(t *testing.T) {
	var got []simtime.Ticks
	rt := New(Config{Mode: Revocation, Sched: sched.Config{Quantum: 100}})
	rt.Spawn("t", sched.NormPriority, func(tk *Task) {
		got = append(got, tk.Headroom())
		tk.Step(30)
		got = append(got, tk.Headroom())
		tk.revokeReq = &revocation{mon: rt.NewMonitor("m")}
		got = append(got, tk.Headroom())
		tk.Step(1) // delivers (stale: no section) and clears the request
		got = append(got, tk.Headroom())
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[100 70 0 69]" {
		t.Fatalf("headroom = %v, want [100 70 0 69]", got)
	}

	rt = New(Config{Mode: Revocation, Profiler: prof.New(), Sched: sched.Config{Quantum: 100}})
	rt.Spawn("t", sched.NormPriority, func(tk *Task) {
		if h := tk.Headroom(); h != 0 {
			t.Errorf("headroom with a profiler attached = %d, want 0", h)
		}
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestStepMatchesWork: Step is unscaled Work — a cost above the quantum
// is split into quantum-sized yield points — and under NoCosts a fast
// charge moves nothing.
func TestStepMatchesWork(t *testing.T) {
	run := func(noCosts bool, charge func(*Task, simtime.Ticks)) string {
		rt := New(Config{Mode: Revocation, NoCosts: noCosts, Sched: sched.Config{Quantum: 7, SwitchCost: 2}})
		for _, name := range []string{"a", "b"} {
			rt.Spawn(name, sched.NormPriority, func(tk *Task) {
				for _, c := range []simtime.Ticks{3, 0, 19, 7, 1, 15} {
					charge(tk, c)
				}
			})
		}
		if err := rt.Run(); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("now=%d switches=%d", rt.Now(), rt.Stats().ContextSwitches)
	}
	work := func(tk *Task, c simtime.Ticks) {
		if c == 0 {
			tk.YieldPoint() // Work(0) passes no yield point; Step(0) does
			return
		}
		tk.Work(c)
	}
	step := func(tk *Task, c simtime.Ticks) { tk.Step(c) }
	for _, noCosts := range []bool{false, true} {
		if w, s := run(noCosts, work), run(noCosts, step); w != s {
			t.Errorf("NoCosts=%v: Work gives %s, Step gives %s", noCosts, w, s)
		}
	}
}

// TestStepAllocFree: the per-instruction charge allocates nothing.
func TestStepAllocFree(t *testing.T) {
	rt := New(Config{Mode: Revocation, Sched: sched.Config{Quantum: 1000}})
	var allocs float64
	rt.Spawn("t", sched.NormPriority, func(tk *Task) {
		allocs = testing.AllocsPerRun(5000, func() { tk.Step(1) })
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("Step allocates %.2f times per call", allocs)
	}
}
