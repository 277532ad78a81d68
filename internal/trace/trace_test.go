package trace

import (
	"strings"
	"testing"
)

func TestKindString(t *testing.T) {
	if Rollback.String() != "rollback" {
		t.Fatalf("Rollback = %q", Rollback)
	}
	if got := Kind(999).String(); !strings.Contains(got, "999") {
		t.Fatalf("unknown kind = %q", got)
	}
}

func TestEventString(t *testing.T) {
	e := Event{At: 42, Kind: MonitorEnter, Thread: "hi", Object: "m", Detail: "contended"}
	s := e.String()
	for _, want := range []string{"42", "monitor-enter", "thread=hi", "object=m", "contended"} {
		if !strings.Contains(s, want) {
			t.Errorf("Event.String() = %q, missing %q", s, want)
		}
	}
}

// TestEventStringLabelsAux pins that Aux is labelled per kind only at
// render time: the label comes from the kind, never from Detail.
func TestEventStringLabelsAux(t *testing.T) {
	e := Event{At: 7, Kind: Rollback, Thread: "lo", Other: "hi", N: 120, Aux: 3, Detail: "priority-inversion"}
	s := e.String()
	for _, want := range []string{"n=120", "undone=3", "priority-inversion"} {
		if !strings.Contains(s, want) {
			t.Errorf("Event.String() = %q, missing %q", s, want)
		}
	}
	if AuxLabel(MonitorAcquired) != "depth" || AuxLabel(ContextSwitch) != "" || AuxLabel(Kind(-1)) != "" {
		t.Errorf("AuxLabel: acquired %q, switch %q, invalid %q", AuxLabel(MonitorAcquired), AuxLabel(ContextSwitch), AuxLabel(Kind(-1)))
	}
}

// TestJoin pins the subscriber rule the runtime relies on: nil and Discard
// are "nothing", so joining only them yields a nil sink.
func TestJoin(t *testing.T) {
	if s := Join(); s != nil {
		t.Errorf("Join() = %v, want nil", s)
	}
	if s := Join(nil, Discard); s != nil {
		t.Errorf("Join(nil, Discard) = %v, want nil", s)
	}
	var a, b Recorder
	if s := Join(Discard, &a); s != Sink(&a) {
		t.Errorf("Join(Discard, &a) = %v, want &a itself", s)
	}
	s := Join(&a, nil, &b)
	s.Emit(Event{Kind: Custom})
	if a.Len() != 1 || b.Len() != 1 {
		t.Errorf("Join(&a, nil, &b) delivered %d and %d events, want 1 and 1", a.Len(), b.Len())
	}
}

func TestEventStringOmitsEmptyFields(t *testing.T) {
	e := Event{At: 1, Kind: ContextSwitch}
	s := e.String()
	if strings.Contains(s, "thread=") || strings.Contains(s, "object=") {
		t.Fatalf("empty fields rendered: %q", s)
	}
}

func TestRecorder(t *testing.T) {
	var r Recorder
	r.Emit(Event{Kind: Rollback, Thread: "lo"})
	r.Emit(Event{Kind: Rollback, Thread: "lo2"})
	r.Emit(Event{Kind: MonitorExit, Thread: "lo"})
	if r.Len() != 3 {
		t.Fatalf("Len = %d", r.Len())
	}
	if r.Count(Rollback) != 2 {
		t.Fatalf("Count(Rollback) = %d", r.Count(Rollback))
	}
	if r.CountFor(Rollback, "lo") != 1 {
		t.Fatalf("CountFor = %d", r.CountFor(Rollback, "lo"))
	}
	e, ok := r.First(MonitorExit)
	if !ok || e.Thread != "lo" {
		t.Fatalf("First = %+v,%v", e, ok)
	}
	if _, ok := r.First(DeadlockBroken); ok {
		t.Fatal("First found a missing kind")
	}
	got := r.Filter(func(e Event) bool { return e.Thread == "lo" })
	if len(got) != 2 {
		t.Fatalf("Filter = %d events", len(got))
	}
	r.Reset()
	if r.Len() != 0 {
		t.Fatal("Reset did not clear")
	}
}

// TestRecorderEventsSurvivesReset is the regression test for Events()
// returning the live backing store: a snapshot taken before Reset must not
// be clobbered by events recorded afterwards (Reset reuses the array).
func TestRecorderEventsSurvivesReset(t *testing.T) {
	var r Recorder
	r.Emit(Event{Kind: Rollback, Thread: "victim"})
	r.Emit(Event{Kind: Reexecution, Thread: "victim"})
	snap := r.Events()
	r.Reset()
	r.Emit(Event{Kind: Notify, Thread: "other"})
	r.Emit(Event{Kind: Notify, Thread: "other"})
	if len(snap) != 2 {
		t.Fatalf("snapshot length = %d, want 2", len(snap))
	}
	if snap[0].Kind != Rollback || snap[1].Kind != Reexecution {
		t.Fatalf("snapshot clobbered by post-Reset emits: %+v", snap)
	}
	// Mutating the snapshot must not corrupt the recorder either.
	snap[0].Thread = "mutated"
	if e, _ := r.First(Notify); e.Thread != "other" {
		t.Fatalf("recorder state shares memory with snapshot: %+v", e)
	}
}

func TestRecorderDump(t *testing.T) {
	var r Recorder
	r.Emit(Event{Kind: Notify, Thread: "a"})
	var b strings.Builder
	r.Dump(&b)
	if !strings.Contains(b.String(), "notify") {
		t.Fatalf("Dump = %q", b.String())
	}
}

func TestWriterSink(t *testing.T) {
	var b strings.Builder
	w := Writer{W: &b}
	w.Emit(Event{Kind: ThreadStart, Thread: "x"})
	if !strings.Contains(b.String(), "thread-start") {
		t.Fatalf("Writer output = %q", b.String())
	}
}

func TestMultiSink(t *testing.T) {
	var a, b Recorder
	m := Multi{&a, &b}
	m.Emit(Event{Kind: Custom})
	if a.Len() != 1 || b.Len() != 1 {
		t.Fatal("Multi did not fan out")
	}
}

func TestDiscard(t *testing.T) {
	Discard.Emit(Event{Kind: Custom}) // must not panic
}

func TestAllKindsHaveNames(t *testing.T) {
	for k := ThreadStart; k <= Custom; k++ {
		if strings.HasPrefix(k.String(), "kind(") {
			t.Errorf("kind %d has no name", int(k))
		}
	}
}
