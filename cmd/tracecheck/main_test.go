package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/trace"
)

func writeTrace(t *testing.T, path string, events ...trace.Event) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w := obs.NewJSONLWriter(f)
	for _, e := range events {
		w.Emit(e)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRunValidAndInvalid(t *testing.T) {
	dir := t.TempDir()

	good := filepath.Join(dir, "good.jsonl")
	writeTrace(t, good,
		trace.Event{At: 1, Kind: trace.ThreadStart, Thread: "T", N: 5},
		trace.Event{At: 3, Kind: trace.MonitorAcquired, Thread: "T", Object: "M"},
		trace.Event{At: 9, Kind: trace.MonitorExit, Thread: "T", Object: "M"},
	)
	var out, errw bytes.Buffer
	if code := run(&out, &errw, []string{good}, false, ""); code != 0 {
		t.Fatalf("valid trace: exit %d, stderr %q", code, errw.String())
	}
	if !strings.Contains(out.String(), "ok (schema v") || !strings.Contains(out.String(), "3 events, 0 dropped") {
		t.Errorf("report = %q", out.String())
	}

	bad := filepath.Join(dir, "bad.jsonl")
	if err := os.WriteFile(bad, []byte("{\"type\":\"meta\",\"v\":99}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run(&out, &errw, []string{bad}, false, ""); code != 1 {
		t.Errorf("invalid trace: exit %d, want 1", code)
	}
	if code := run(&out, &errw, []string{filepath.Join(dir, "missing.jsonl")}, false, ""); code != 1 {
		t.Errorf("missing file: exit %d, want 1", code)
	}
	if code := run(&out, &errw, nil, false, ""); code != 2 {
		t.Errorf("no args: exit %d, want 2", code)
	}
}

// TestRunStrictDropped pins the -strict contract: a schema-valid stream the
// observer cannot fully join (here a wait-end with no wait-start) passes by
// default but fails under -strict, with the dropped count surfaced either
// way.
func TestRunStrictDropped(t *testing.T) {
	dir := t.TempDir()
	lossy := filepath.Join(dir, "lossy.jsonl")
	writeTrace(t, lossy,
		trace.Event{At: 1, Kind: trace.ThreadStart, Thread: "T", N: 5},
		trace.Event{At: 7, Kind: trace.WaitEnd, Thread: "T", Object: "M"},
	)

	var out, errw bytes.Buffer
	if code := run(&out, &errw, []string{lossy}, false, ""); code != 0 {
		t.Fatalf("lossy trace without -strict: exit %d, stderr %q", code, errw.String())
	}
	if !strings.Contains(out.String(), "1 dropped") {
		t.Errorf("dropped count not reported: %q", out.String())
	}

	out.Reset()
	errw.Reset()
	if code := run(&out, &errw, []string{lossy}, true, ""); code != 1 {
		t.Errorf("lossy trace with -strict: exit %d, want 1", code)
	}
	if !strings.Contains(errw.String(), "dropped as unjoinable") {
		t.Errorf("strict failure not explained: %q", errw.String())
	}
}

// TestRunStrictToleratesDeclaredTruncation pins the flight-recorder
// contract: the same unjoinable stream passes -strict when its meta line
// declares a truncated (ring-wrapped) prefix, because the drops are
// attributable to the overwritten events rather than to schema damage.
func TestRunStrictToleratesDeclaredTruncation(t *testing.T) {
	dir := t.TempDir()
	truncated := filepath.Join(dir, "truncated.jsonl")
	f, err := os.Create(truncated)
	if err != nil {
		t.Fatal(err)
	}
	w := obs.NewJSONLWriterInfo(f, obs.StreamInfo{Truncated: true, Lost: 12})
	// A wait-end whose start was overwritten: unjoinable, hence dropped.
	w.Emit(trace.Event{At: 7, Kind: trace.WaitEnd, Thread: "T", Object: "M"})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var out, errw bytes.Buffer
	if code := run(&out, &errw, []string{truncated}, true, ""); code != 0 {
		t.Fatalf("declared-truncated stream with -strict: exit %d, stderr %q", code, errw.String())
	}
	if !strings.Contains(out.String(), "truncated: 12 lost") {
		t.Errorf("truncation not surfaced: %q", out.String())
	}
}

// TestMetricsOutReplaysObserver pins -metrics-out: the file holds the
// metrics of the validated stream replayed into a fresh observer, in the
// JSON format rvmrun -metrics json writes, and needs exactly one input.
func TestMetricsOutReplaysObserver(t *testing.T) {
	dir := t.TempDir()
	events := []trace.Event{
		{At: 0, Kind: trace.ThreadStart, Thread: "lo", N: 3},
		{At: 2, Kind: trace.MonitorAcquired, Thread: "lo", Object: "M", Aux: 1},
		{At: 5, Kind: trace.MonitorBlocked, Thread: "hi", Object: "M", Other: "lo"},
		{At: 6, Kind: trace.Rollback, Thread: "lo", Object: "M", Other: "hi", N: 4, Aux: 1, Detail: "priority-inversion"},
		{At: 6, Kind: trace.MonitorAcquired, Thread: "hi", Object: "M", Aux: 1},
		{At: 9, Kind: trace.MonitorExit, Thread: "hi", Object: "M"},
	}
	path := filepath.Join(dir, "run.jsonl")
	writeTrace(t, path, events...)
	o := obs.NewObserver()
	for _, e := range events {
		o.Emit(e)
	}
	var want bytes.Buffer
	if err := o.Metrics().WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	metrics := filepath.Join(dir, "replayed.json")
	var out, errw bytes.Buffer
	if code := run(&out, &errw, []string{path}, true, metrics); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errw.String())
	}
	got, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("replayed metrics:\n%s\nwant:\n%s", got, want.Bytes())
	}
	if code := run(&out, &errw, []string{path, path}, false, metrics); code != 2 {
		t.Errorf("-metrics-out with two inputs: exit %d, want 2", code)
	}
}
