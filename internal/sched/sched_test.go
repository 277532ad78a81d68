package sched

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/simtime"
	"repro/internal/trace"
)

func newTestSched(cfg Config) *Scheduler {
	return New(cfg)
}

func TestSingleThreadRunsToCompletion(t *testing.T) {
	s := newTestSched(Config{})
	done := false
	s.Spawn("a", NormPriority, func(th *Thread) {
		th.Advance(10)
		done = true
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("body did not run")
	}
	if s.Now() != 10 {
		t.Fatalf("clock = %d, want 10", s.Now())
	}
}

func TestOnlyOneThreadRunsAtATime(t *testing.T) {
	s := newTestSched(Config{Quantum: 5})
	running := 0
	maxRunning := 0
	for i := 0; i < 4; i++ {
		s.Spawn(fmt.Sprintf("t%d", i), NormPriority, func(th *Thread) {
			for j := 0; j < 10; j++ {
				running++
				if running > maxRunning {
					maxRunning = running
				}
				th.Advance(1)
				running--
				th.YieldPoint()
			}
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if maxRunning != 1 {
		t.Fatalf("max concurrent threads = %d, want 1", maxRunning)
	}
}

func TestQuantumForcesRoundRobin(t *testing.T) {
	s := newTestSched(Config{Quantum: 3})
	var order []string
	work := func(th *Thread) {
		for i := 0; i < 3; i++ {
			order = append(order, th.Name())
			th.Advance(3) // exactly one quantum
			th.YieldPoint()
		}
	}
	s.Spawn("a", NormPriority, work)
	s.Spawn("b", NormPriority, work)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "a", "b", "a", "b"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestYieldPointBelowQuantumDoesNotSwitch(t *testing.T) {
	s := newTestSched(Config{Quantum: 100})
	var order []string
	s.Spawn("a", NormPriority, func(th *Thread) {
		for i := 0; i < 5; i++ {
			order = append(order, "a")
			th.Advance(1)
			th.YieldPoint()
		}
	})
	s.Spawn("b", NormPriority, func(th *Thread) {
		order = append(order, "b")
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// a never exhausts its quantum, so it finishes before b starts.
	want := []string{"a", "a", "a", "a", "a", "b"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestExplicitYield(t *testing.T) {
	s := newTestSched(Config{Quantum: 1000})
	var order []string
	s.Spawn("a", NormPriority, func(th *Thread) {
		order = append(order, "a1")
		th.Yield()
		order = append(order, "a2")
	})
	s.Spawn("b", NormPriority, func(th *Thread) {
		order = append(order, "b1")
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a1", "b1", "a2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestBlockUnblock(t *testing.T) {
	s := newTestSched(Config{})
	var blocked *Thread
	var got WakeKind
	s.Spawn("waiter", NormPriority, func(th *Thread) {
		blocked = th
		got = th.Block("resource")
	})
	s.Spawn("waker", NormPriority, func(th *Thread) {
		for blocked == nil || blocked.State() != StateBlocked {
			th.Yield()
		}
		s.Unblock(blocked, WakeGranted)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got != WakeGranted {
		t.Fatalf("wake kind = %v, want granted", got)
	}
}

func TestBlockReasonVisible(t *testing.T) {
	s := newTestSched(Config{})
	s.Spawn("a", NormPriority, func(th *Thread) {
		th.Block("the-lock")
	})
	err := s.Run()
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	if want := "the-lock"; !contains(err.Error(), want) {
		t.Fatalf("error %q missing %q", err, want)
	}
	s.Drain()
}

func TestSleepAdvancesVirtualTime(t *testing.T) {
	s := newTestSched(Config{})
	s.Spawn("sleeper", NormPriority, func(th *Thread) {
		th.Sleep(500)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Now() != 500 {
		t.Fatalf("clock = %d, want 500 (discrete-event jump)", s.Now())
	}
}

func TestSleepZeroYields(t *testing.T) {
	s := newTestSched(Config{})
	var order []string
	s.Spawn("a", NormPriority, func(th *Thread) {
		th.Sleep(0)
		order = append(order, "a")
	})
	s.Spawn("b", NormPriority, func(th *Thread) {
		order = append(order, "b")
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if order[0] != "b" {
		t.Fatalf("order = %v", order)
	}
}

func TestSleepersInterleaveWithRunners(t *testing.T) {
	s := newTestSched(Config{Quantum: 10})
	var wokeAt simtime.Ticks
	s.Spawn("sleeper", NormPriority, func(th *Thread) {
		th.Sleep(15)
		wokeAt = s.Now()
	})
	s.Spawn("worker", NormPriority, func(th *Thread) {
		for i := 0; i < 10; i++ {
			th.Advance(10)
			th.YieldPoint()
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if wokeAt < 15 || wokeAt > 40 {
		t.Fatalf("sleeper woke at %d, want shortly after 15", wokeAt)
	}
}

func TestPreemptForcesYield(t *testing.T) {
	s := newTestSched(Config{Quantum: 1 << 40})
	var order []string
	var a *Thread
	a = s.Spawn("a", NormPriority, func(th *Thread) {
		order = append(order, "a1")
		th.Advance(1)
		th.YieldPoint() // no switch: huge quantum
		order = append(order, "a2")
		th.Preempt() // self-preempt
		th.YieldPoint()
		order = append(order, "a3")
	})
	s.Spawn("b", NormPriority, func(th *Thread) {
		order = append(order, "b1")
	})
	_ = a
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a1", "a2", "b1", "a3"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestPriorityPolicyDispatchesHighFirst(t *testing.T) {
	s := newTestSched(Config{Policy: PriorityRR, Quantum: 5})
	var order []string
	s.Spawn("low", LowPriority, func(th *Thread) {
		order = append(order, "low")
	})
	s.Spawn("high", HighPriority, func(th *Thread) {
		order = append(order, "high")
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if order[0] != "high" {
		t.Fatalf("order = %v, want high first", order)
	}
}

func TestRoundRobinIgnoresPriority(t *testing.T) {
	s := newTestSched(Config{Policy: RoundRobin})
	var order []string
	s.Spawn("low", LowPriority, func(th *Thread) {
		order = append(order, "low")
	})
	s.Spawn("high", HighPriority, func(th *Thread) {
		order = append(order, "high")
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if order[0] != "low" {
		t.Fatalf("order = %v, want spawn order (round-robin ignores priority)", order)
	}
}

func TestSetPriorityRequeues(t *testing.T) {
	s := newTestSched(Config{Policy: PriorityRR, Quantum: 5})
	var order []string
	var low *Thread
	low = s.Spawn("low", LowPriority, func(th *Thread) {
		order = append(order, "low")
	})
	s.Spawn("boss", MaxPriority, func(th *Thread) {
		s.SetPriority(low, MaxPriority-1)
		order = append(order, "boss")
	})
	s.Spawn("mid", NormPriority, func(th *Thread) {
		order = append(order, "mid")
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"boss", "low", "mid"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if low.BasePriority() != LowPriority {
		t.Fatalf("base priority changed: %d", low.BasePriority())
	}
	s.RestorePriority(low)
	if low.Priority() != LowPriority {
		t.Fatalf("RestorePriority: %d", low.Priority())
	}
}

func TestSpawnFromRunningThread(t *testing.T) {
	s := newTestSched(Config{})
	ran := false
	s.Spawn("parent", NormPriority, func(th *Thread) {
		s.Spawn("child", NormPriority, func(*Thread) { ran = true })
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("child did not run")
	}
}

func TestPanicInBodyReported(t *testing.T) {
	s := newTestSched(Config{})
	s.Spawn("boom", NormPriority, func(th *Thread) {
		panic("kaboom")
	})
	err := s.Run()
	if err == nil || !contains(err.Error(), "kaboom") {
		t.Fatalf("err = %v", err)
	}
}

func TestSwitchCostCharged(t *testing.T) {
	s := newTestSched(Config{SwitchCost: 7})
	s.Spawn("a", NormPriority, func(th *Thread) {})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Now() != 7 {
		t.Fatalf("clock = %d, want 7 (one dispatch)", s.Now())
	}
}

func TestAccounting(t *testing.T) {
	s := newTestSched(Config{Quantum: 10})
	var th1 *Thread
	th1 = s.Spawn("a", NormPriority, func(th *Thread) {
		th.Advance(25)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if th1.CPU() != 25 {
		t.Fatalf("CPU = %d", th1.CPU())
	}
	if th1.State() != StateDone {
		t.Fatalf("state = %v", th1.State())
	}
	if th1.EndedAt() != 25 {
		t.Fatalf("EndedAt = %d", th1.EndedAt())
	}
	if s.ContextSwitches() != 1 {
		t.Fatalf("switches = %d", s.ContextSwitches())
	}
}

func TestDeterministicRng(t *testing.T) {
	run := func() []int64 {
		s := newTestSched(Config{Seed: 42})
		var vals []int64
		s.Spawn("a", NormPriority, func(th *Thread) {
			for i := 0; i < 5; i++ {
				vals = append(vals, s.Rng().Int63n(1000))
			}
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return vals
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs differ: %v vs %v", a, b)
		}
	}
}

func TestTracerReceivesLifecycleEvents(t *testing.T) {
	var rec trace.Recorder
	s := newTestSched(Config{Tracer: &rec})
	s.Spawn("a", NormPriority, func(th *Thread) { th.Advance(1) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if rec.Count(trace.ThreadStart) != 1 || rec.Count(trace.ThreadEnd) != 1 {
		t.Fatalf("lifecycle events: %d starts, %d ends", rec.Count(trace.ThreadStart), rec.Count(trace.ThreadEnd))
	}
	if rec.Count(trace.ContextSwitch) < 1 {
		t.Fatal("no context-switch events")
	}
}

func TestWakeSleeperEarly(t *testing.T) {
	s := newTestSched(Config{})
	var sleeper *Thread
	wokeAt := simtime.Ticks(-1)
	sleeper = s.Spawn("sleeper", NormPriority, func(th *Thread) {
		th.Sleep(1_000_000)
		wokeAt = s.Now()
	})
	s.Spawn("waker", NormPriority, func(th *Thread) {
		th.Advance(10)
		th.Yield() // let sleeper park first? it parked before us (spawn order)
		if sleeper.State() == StateSleeping {
			s.WakeSleeper(sleeper, WakeInterrupt)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if wokeAt < 0 || wokeAt >= 1_000_000 {
		t.Fatalf("sleeper woke at %d, want early wake", wokeAt)
	}
}

func TestDrainOnDeadlock(t *testing.T) {
	s := newTestSched(Config{})
	for i := 0; i < 3; i++ {
		s.Spawn(fmt.Sprintf("b%d", i), NormPriority, func(th *Thread) {
			th.Block("forever")
		})
	}
	err := s.Run()
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v", err)
	}
	s.Drain() // must not hang or panic
}

func TestThreadIntrospection(t *testing.T) {
	s := newTestSched(Config{})
	th := s.Spawn("named", HighPriority, func(th *Thread) {})
	if th.Name() != "named" || th.ID() != 0 || th.Priority() != HighPriority {
		t.Fatalf("introspection: %s %d %d", th.Name(), th.ID(), th.Priority())
	}
	if len(s.Threads()) != 1 {
		t.Fatal("Threads() wrong")
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestInvalidPriorityPanics(t *testing.T) {
	s := newTestSched(Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for invalid priority")
		}
	}()
	s.Spawn("bad", 0, func(*Thread) {})
}

func TestStateStrings(t *testing.T) {
	for st, want := range map[State]string{
		StateNew: "new", StateRunnable: "runnable", StateRunning: "running",
		StateBlocked: "blocked", StateSleeping: "sleeping", StateDone: "done",
	} {
		if st.String() != want {
			t.Errorf("State(%d) = %q, want %q", int(st), st, want)
		}
	}
	if RoundRobin.String() != "round-robin" || PriorityRR.String() != "priority-rr" {
		t.Error("policy strings wrong")
	}
	for k, want := range map[WakeKind]string{WakeGranted: "granted", WakeRetry: "retry", WakeInterrupt: "interrupt", WakeNone: "none"} {
		if k.String() != want {
			t.Errorf("WakeKind %d = %q", int(k), k)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// TestEmitSkipsWithoutSubscriber pins the one emit path: Emit stamps the
// current virtual time, and a nil or Discard tracer counts as no
// subscriber, so Tracing reports false and nothing is delivered.
func TestEmitSkipsWithoutSubscriber(t *testing.T) {
	for _, sink := range []trace.Sink{nil, trace.Discard} {
		if New(Config{Tracer: sink}).Tracing() {
			t.Errorf("Tracing() with tracer %v = true", sink)
		}
	}
	var rec trace.Recorder
	s := New(Config{Tracer: &rec})
	if !s.Tracing() {
		t.Fatal("Tracing() with a recorder = false")
	}
	s.Clock().Advance(5)
	s.Emit(trace.Event{At: 99, Kind: trace.Custom})
	if e, ok := rec.First(trace.Custom); !ok || e.At != 5 {
		t.Errorf("emitted %+v (ok=%v), want At stamped to 5", e, ok)
	}
}

// TestHeadroomTracksTimeslice: the running thread's headroom is the ticks
// left before the timeslice boundary, and 0 while a preemption is
// requested or once the slice has expired.
func TestHeadroomTracksTimeslice(t *testing.T) {
	s := newTestSched(Config{Quantum: 10})
	var got []simtime.Ticks
	s.Spawn("a", NormPriority, func(th *Thread) {
		got = append(got, th.Headroom()) // 10: fresh slice
		th.Advance(4)
		got = append(got, th.Headroom()) // 6
		th.Preempt()
		got = append(got, th.Headroom()) // 0: preemption requested
		th.YieldPoint()                  // honours it; redispatched mid-slice
		got = append(got, th.Headroom()) // 6: the global timer did not fire
		th.Advance(12)
		got = append(got, th.Headroom()) // 0: slice expired, not negative
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []simtime.Ticks{10, 6, 0, 6, 0}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("headroom = %v, want %v", got, want)
	}
}

// TestHeadroomZeroWhenNotRunning: a thread that is not the running one has
// no headroom — before its first dispatch, while another thread runs, and
// after it finished — so no caller can skip its yield points.
func TestHeadroomZeroWhenNotRunning(t *testing.T) {
	s := newTestSched(Config{Quantum: 100})
	var a, b *Thread
	var seen []simtime.Ticks
	a = s.Spawn("a", NormPriority, func(th *Thread) {
		seen = append(seen, b.Headroom()) // b not yet dispatched
		th.Yield()
		seen = append(seen, b.Headroom()) // b ran and finished
	})
	b = s.Spawn("b", NormPriority, func(th *Thread) {
		seen = append(seen, a.Headroom()) // a queued after its Yield
		seen = append(seen, th.Headroom())
	})
	if h := a.Headroom(); h != 0 {
		t.Fatalf("headroom before Run = %d, want 0", h)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(seen) != "[0 0 100 0]" {
		t.Fatalf("headroom seen = %v, want [0 0 100 0]", seen)
	}
	if a.Headroom() != 0 || b.Headroom() != 0 {
		t.Fatal("finished threads keep headroom")
	}
}

// TestChargeBelowHeadroomNeverSwitches: charges each below the current
// headroom never reach the timeslice boundary, so the yield points they
// stand in for would not have switched, and Charge accounts exactly like
// Advance.
func TestChargeBelowHeadroomNeverSwitches(t *testing.T) {
	s := newTestSched(Config{Quantum: 50})
	s.Spawn("a", NormPriority, func(th *Thread) {
		for _, d := range []simtime.Ticks{0, 7, 1, 30, 11} {
			h := th.Headroom()
			if d >= h {
				t.Fatalf("test charge %d not below headroom %d", d, h)
			}
			th.Charge(d)
			if th.NeedsYield() {
				t.Fatalf("charge %d below headroom %d reached the boundary", d, h)
			}
			th.YieldPoint()
		}
		if th.Headroom() != 1 {
			t.Fatalf("headroom = %d after 49 ticks of a 50-tick slice", th.Headroom())
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.ContextSwitches() != 1 || s.Now() != 49 || s.Threads()[0].CPU() != 49 {
		t.Fatalf("switches=%d now=%d cpu=%d, want 1 49 49", s.ContextSwitches(), s.Now(), s.Threads()[0].CPU())
	}
}
