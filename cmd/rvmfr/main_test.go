package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fr"
	"repro/internal/obs"
	"repro/internal/simtime"
	"repro/internal/trace"
)

// makeDump writes a small deadlock-flavored dump to dir and returns its path.
func makeDump(t *testing.T, dir string) string {
	t.Helper()
	var got *fr.Dump
	r := fr.New(fr.Config{
		Size:     1 << 14,
		Triggers: fr.TriggerSpec{Deadlock: true},
		OnDump:   func(d *fr.Dump) { got = d },
		Program:  "examples/deadlock2",
		VM:       "revocation",
		StatsJSON: func() []byte {
			return []byte(`{"rollbacks":1,"wasted_ticks":42}`)
		},
	})
	r.Emit(trace.Event{At: 0, Kind: trace.ThreadStart, Thread: "a", N: 5})
	r.Emit(trace.Event{At: 0, Kind: trace.ThreadStart, Thread: "b", N: 5})
	r.Emit(trace.Event{At: 3, Kind: trace.MonitorAcquired, Thread: "a", Object: "l1"})
	r.Emit(trace.Event{At: 4, Kind: trace.MonitorAcquired, Thread: "b", Object: "l2"})
	r.Emit(trace.Event{At: 5, Kind: trace.MonitorBlocked, Thread: "a", Object: "l2", Other: "b"})
	r.Emit(trace.Event{At: 6, Kind: trace.MonitorBlocked, Thread: "b", Object: "l1", Other: "a"})
	r.Emit(trace.Event{At: 6, Kind: trace.DeadlockDetected, Thread: "b", Object: "l1", Detail: "cycle=b->a->b"})
	if got == nil {
		t.Fatal("deadlock trigger did not fire")
	}
	path := filepath.Join(dir, "dump.rvmfr")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := fr.WriteDump(f, got); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestSummary(t *testing.T) {
	path := makeDump(t, t.TempDir())
	var out, errw bytes.Buffer
	if code := run(&out, &errw, []string{"summary", path}); code != 0 {
		t.Fatalf("exit %d: %s", code, errw.String())
	}
	s := out.String()
	for _, want := range []string{
		"reason:   deadlock",
		"deadlock-detected",
		"program:  examples/deadlock2",
		"vm:       revocation",
		"wrapped:  no",
		"stats:",
		"metrics:",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}

func TestEvents(t *testing.T) {
	path := makeDump(t, t.TempDir())
	var out, errw bytes.Buffer
	if code := run(&out, &errw, []string{"events", path}); code != 0 {
		t.Fatalf("exit %d: %s", code, errw.String())
	}
	if n := strings.Count(out.String(), "\n"); n != 7 {
		t.Fatalf("expected 7 event lines, got %d:\n%s", n, out.String())
	}
	if !strings.Contains(out.String(), "deadlock-detected") {
		t.Fatalf("timeline missing the trigger event:\n%s", out.String())
	}
}

func TestJSONLConversionRoundTrips(t *testing.T) {
	dir := t.TempDir()
	path := makeDump(t, dir)
	jsonlPath := filepath.Join(dir, "trace.jsonl")
	var out, errw bytes.Buffer
	if code := run(&out, &errw, []string{"jsonl", "-o", jsonlPath, path}); code != 0 {
		t.Fatalf("exit %d: %s", code, errw.String())
	}
	raw, err := os.ReadFile(jsonlPath)
	if err != nil {
		t.Fatal(err)
	}
	events, info, err := obs.ParseJSONLInfo(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("converted stream invalid: %v", err)
	}
	if info.Truncated {
		t.Fatal("unwrapped dump converted with truncation marker")
	}
	if len(events) != 7 {
		t.Fatalf("%d events after conversion, want 7", len(events))
	}
	if events[6].Kind != trace.DeadlockDetected {
		t.Fatalf("last event %v, want deadlock-detected", events[6].Kind)
	}
}

func TestPerfettoConversion(t *testing.T) {
	dir := t.TempDir()
	path := makeDump(t, dir)
	var out, errw bytes.Buffer
	if code := run(&out, &errw, []string{"perfetto", path}); code != 0 {
		t.Fatalf("exit %d: %s", code, errw.String())
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("perfetto output is not JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("perfetto conversion produced no trace events")
	}
}

func TestMerge(t *testing.T) {
	dir := t.TempDir()
	p1 := makeDump(t, dir)

	// Add a wrapped high-traffic dump for variety.
	r := fr.New(fr.Config{Size: 1 << 12})
	for i := 0; i < 200; i++ {
		r.Emit(trace.Event{At: simtime.Ticks(i * 3), Kind: trace.MonitorBlocked, Thread: "w", Object: "m", Other: "o"})
		r.Emit(trace.Event{At: simtime.Ticks(i*3 + 2), Kind: trace.MonitorAcquired, Thread: "w", Object: "m"})
	}
	d, err := r.Snapshot("")
	if err != nil {
		t.Fatal(err)
	}
	p2 := filepath.Join(dir, "busy.rvmfr")
	f, err := os.Create(p2)
	if err != nil {
		t.Fatal(err)
	}
	if err := fr.WriteDump(f, d); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var out, errw bytes.Buffer
	if code := run(&out, &errw, []string{"merge", p1, p2}); code != 0 {
		t.Fatalf("exit %d: %s", code, errw.String())
	}
	if !strings.Contains(out.String(), "2 dump(s)") || !strings.Contains(out.String(), "blocking") {
		t.Fatalf("merge table unexpected:\n%s", out.String())
	}

	out.Reset()
	if code := run(&out, &errw, []string{"merge", "-json", p1, p2}); code != 0 {
		t.Fatalf("exit %d: %s", code, errw.String())
	}
	var rep fr.FleetReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.DumpCount != 2 || rep.Series["blocking"].Count == 0 {
		t.Fatalf("merged report wrong: %+v", rep)
	}
}

func TestBadInputsExitNonzero(t *testing.T) {
	dir := t.TempDir()
	junk := filepath.Join(dir, "junk")
	if err := os.WriteFile(junk, []byte("nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errw bytes.Buffer
	if code := run(&out, &errw, []string{"summary", junk}); code != 1 {
		t.Fatalf("summary on junk: exit %d", code)
	}
	// A ~15-byte dump whose strings section claims 1<<40 entries once
	// killed the reader with an uncatchable out-of-memory fatal error.
	crafted := filepath.Join(dir, "crafted.rvmfr")
	b := binary.AppendUvarint(append([]byte(nil), fr.Magic...), fr.DumpVersion)
	b = append(b, 0x02, 6) // strings section, 6-byte payload
	b = binary.AppendUvarint(b, 1<<40)
	if err := os.WriteFile(crafted, b, 0o644); err != nil {
		t.Fatal(err)
	}
	errw.Reset()
	if code := run(&out, &errw, []string{"summary", crafted}); code != 1 || !strings.Contains(errw.String(), "strings section") {
		t.Fatalf("summary on crafted dump: exit %d, stderr %q", code, errw.String())
	}
	if code := run(&out, &errw, []string{"wat"}); code != 2 {
		t.Fatalf("unknown command: exit %d", code)
	}
	if code := run(&out, &errw, nil); code != 2 {
		t.Fatalf("no args: exit %d", code)
	}
}
