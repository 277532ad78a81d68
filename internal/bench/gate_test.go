package bench

import (
	"os"
	"path/filepath"
	"testing"
)

// TestLatestReport checks that the gate baselines against the last report
// of the lexicographically newest BENCH_*.json, skipping empty files.
func TestLatestReport(t *testing.T) {
	dir := t.TempDir()

	if _, _, ok, err := LatestReport(dir); err != nil || ok {
		t.Fatalf("empty dir: ok=%v err=%v, want no baseline", ok, err)
	}

	old := Report{Label: "old", Date: "2026-01-01",
		Benchmarks: []BenchResult{{Name: "WriteBarrier", NsPerOp: 10}}}
	mid := Report{Label: "mid", Date: "2026-02-01",
		Benchmarks: []BenchResult{{Name: "WriteBarrier", NsPerOp: 11}}}
	newest := Report{Label: "new", Date: "2026-03-01",
		Benchmarks: []BenchResult{{Name: "WriteBarrier", NsPerOp: 12}}}

	if err := WriteReport(filepath.Join(dir, "BENCH_2026-01-01.json"), old); err != nil {
		t.Fatal(err)
	}
	// Two entries in one file: the last one wins.
	f2 := filepath.Join(dir, "BENCH_2026-02-01.json")
	if err := WriteReport(f2, mid); err != nil {
		t.Fatal(err)
	}
	if err := WriteReport(f2, newest); err != nil {
		t.Fatal(err)
	}
	// A newer-named but empty file must be skipped, not chosen.
	if err := os.WriteFile(filepath.Join(dir, "BENCH_2026-04-01.json"), []byte("[]\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	rep, path, ok, err := LatestReport(dir)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v, want baseline", ok, err)
	}
	if rep.Label != "new" || path != f2 {
		t.Fatalf("got label %q from %s, want \"new\" from %s", rep.Label, path, f2)
	}
}

// TestGateVerdicts checks verdict aggregation on synthetic entries: only
// a Regressed entry fails the gate; missing baselines are informational.
func TestGateVerdicts(t *testing.T) {
	g := GateResult{Entries: []GateEntry{
		{Name: "a", Baseline: 100, Current: 119, Regressed: false},
		{Name: "b", Current: 50, Missing: true},
	}}
	if g.Failed() {
		t.Fatal("within-threshold + missing entries must not fail the gate")
	}
	g.Entries = append(g.Entries, GateEntry{Name: "c", Baseline: 100, Current: 121, Regressed: true})
	if !g.Failed() {
		t.Fatal("a regressed entry must fail the gate")
	}
}

// TestSeriesBaselines checks that each series baselines against the newest
// report that measured it, so a partial trajectory entry does not drop
// the other series' baselines.
func TestSeriesBaselines(t *testing.T) {
	dir := t.TempDir()
	full := Report{Label: "full", Benchmarks: []BenchResult{
		{Name: "WriteBarrier", NsPerOp: 10}, {Name: "ContextSwitch", NsPerOp: 1000}}}
	partial := Report{Label: "partial", Benchmarks: []BenchResult{
		{Name: "ContextSwitch", NsPerOp: 900}, {Name: "InterpInvokeReturn/opt", NsPerOp: 300}}}
	if err := WriteReport(filepath.Join(dir, "BENCH_2026-01-01.json"), full); err != nil {
		t.Fatal(err)
	}
	if err := WriteReport(filepath.Join(dir, "BENCH_2026-02-01.json"), partial); err != nil {
		t.Fatal(err)
	}
	base, err := SeriesBaselines(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"WriteBarrier": 10, "ContextSwitch": 900, "InterpInvokeReturn/opt": 300}
	if len(base) != len(want) {
		t.Fatalf("got %v, want %v", base, want)
	}
	for name, ns := range want {
		if base[name] != ns {
			t.Errorf("%s: baseline %v, want %v", name, base[name], ns)
		}
	}
}
