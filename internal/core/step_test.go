package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/heap"
	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/sched"
	"repro/internal/simtime"
)

// TestTaskHeadroomGates: the task's headroom is the clock's fast-charge
// bound while nothing needs a charge's yield point, and 0 while a
// revocation is pending, a preemption is requested or a profiler is
// attached, so those charges take the full path. The bound reopens at the
// next dispatch, and the thread's CPU read mid-slice counts every tick
// charged so far, fast or slow.
func TestTaskHeadroomGates(t *testing.T) {
	var got, cpu []simtime.Ticks
	rt := New(Config{Mode: Revocation, Sched: sched.Config{Quantum: 100}})
	rt.Spawn("t", sched.NormPriority, func(tk *Task) {
		got = append(got, tk.Headroom())
		tk.Step(30)
		got = append(got, tk.Headroom())
		cpu = append(cpu, tk.Thread().CPU())
		tk.setRevokeReq(&revocation{mon: rt.NewMonitor("m")})
		got = append(got, tk.Headroom())
		tk.Step(1) // delivers (stale: no section) and clears the request
		got = append(got, tk.Headroom())
		tk.Thread().Preempt()
		got = append(got, tk.Headroom())
		tk.Step(2) // honours the preemption; redispatched mid-slice
		got = append(got, tk.Headroom())
		tk.Step(5)
		cpu = append(cpu, tk.Thread().CPU())
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[100 70 0 69 0 67]" {
		t.Fatalf("headroom = %v, want [100 70 0 69 0 67]", got)
	}
	if fmt.Sprint(cpu) != "[30 38]" {
		t.Fatalf("CPU mid-slice = %v, want [30 38]", cpu)
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

// TestFastChargeEquivalence: the clock's fast-charge bound changes no
// tick. A paper-cell-shaped workload (high- and low-priority threads
// pausing, then walking a shared array inside one monitor) runs once
// normally and once with every thread held on the full charge path; the
// final clock, Stats, every thread's CPU and start/end times and the
// JSONL event stream must match byte for byte. The threads also request
// their own preemption now and then, so the bound must close on Preempt.
func TestFastChargeEquivalence(t *testing.T) {
	run := func(mode Mode, high, low, writePct int, slow bool) string {
		var jsonl bytes.Buffer
		w := obs.NewJSONLWriter(&jsonl)
		rt := New(Config{Mode: mode, TrackDependencies: mode == Revocation, CostRead: 4, CostWrite: 4,
			CostLogEntry: 1, CostUndoEntry: 1, Tracer: w,
			Sched: sched.Config{Quantum: 50, SwitchCost: 1, Seed: 3}})
		rt.slowCharges = slow
		buf := rt.Heap().AllocArray(16)
		mon := rt.NewMonitor("shared")
		spawn := func(name string, prio sched.Priority, iters int, seed int64) {
			rng := rand.New(rand.NewSource(seed))
			rt.Spawn(name, prio, func(tk *Task) {
				for s := 0; s < 4; s++ {
					tk.Sleep(simtime.Ticks(rng.Int63n(201)))
					tk.Work(simtime.Ticks(rng.Int63n(201)))
					tk.Synchronized(mon, func() {
						writes := 0
						for i := 0; i < iters; i++ {
							if (i+1)*writePct/100 > writes {
								tk.WriteElem(buf, i%16, heap.Word(i))
								writes++
							} else {
								tk.ReadElem(buf, i%16)
							}
							if rng.Intn(13) == 0 {
								tk.Thread().Preempt()
							}
						}
					})
				}
			})
		}
		for i := 0; i < high; i++ {
			spawn(fmt.Sprintf("high%d", i), sched.HighPriority, 5, int64(i)*7919+1)
		}
		for i := 0; i < low; i++ {
			spawn(fmt.Sprintf("low%d", i), sched.LowPriority, 40, int64(i)*104729+2)
		}
		if err := rt.Run(); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		out := fmt.Sprintf("now=%d stats=%+v\n", rt.Now(), rt.Stats())
		for _, th := range rt.Scheduler().Threads() {
			out += fmt.Sprintf("%s cpu=%d start=%d end=%d\n", th.Name(), th.CPU(), th.StartedAt(), th.EndedAt())
		}
		return out + jsonl.String()
	}
	for _, mode := range []Mode{Unmodified, Revocation} {
		for _, mix := range [][2]int{{2, 8}, {8, 2}} {
			for _, writePct := range []int{0, 50, 100} {
				name := fmt.Sprintf("%v/%d+%d/w%d", mode, mix[0], mix[1], writePct)
				fast, held := run(mode, mix[0], mix[1], writePct, false), run(mode, mix[0], mix[1], writePct, true)
				if fast == held {
					continue
				}
				f, h := strings.Split(fast, "\n"), strings.Split(held, "\n")
				i := 0
				for i < len(f) && i < len(h) && f[i] == h[i] {
					i++
				}
				f, h = append(f, ""), append(h, "")
				t.Errorf("%s: the fast charge path changed the run at line %d\nfast: %s\nheld: %s", name, i+1, f[i], h[i])
			}
		}
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
