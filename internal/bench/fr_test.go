package bench

import (
	"testing"

	"repro/internal/fr"
)

// TestFlightRecorderAppendBudget pins the recorder's headline contract: a
// steady-state append stays allocation-free and costs at most a fixed
// multiple of the logging write barrier measured in the same process. The
// multiple is the reference host's 50 ns budget divided by its committed
// WriteBarrier figure (the escape-confined-elision entry of
// results/BENCH_2026-08-08.json, ≈ 4.28×), so the bound is exactly as
// strict as the absolute one was there while holding on any host speed.
// The allocation bound is exact (the Go allocator is deterministic); each
// timing takes the best of five interleaved runs so scheduler noise on
// shared CI machines — including the parallel packages of a full
// `go test ./...` competing for cores — cannot fail a healthy build.
func TestFlightRecorderAppendBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("timing budget under -short")
	}
	const (
		referenceBudgetNs = 50.0
		referenceFile     = "../../results/BENCH_2026-08-08.json"
		referenceLabel    = "escape-confined-elision"
	)
	var referenceWB float64
	reports, err := LoadReports(referenceFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reports {
		if r.Label != referenceLabel {
			continue
		}
		for _, b := range r.Benchmarks {
			if b.Name == "WriteBarrier" {
				referenceWB = b.NsPerOp
			}
		}
	}
	if referenceWB <= 0 {
		t.Fatalf("%s: no WriteBarrier figure in entry %q", referenceFile, referenceLabel)
	}
	budgetRatio := referenceBudgetNs / referenceWB

	best := func(prev BenchResult, name string, body func(*testing.B)) BenchResult {
		if r := measure(name, body); prev.Iterations == 0 || r.NsPerOp < prev.NsPerOp {
			return r
		}
		return prev
	}
	var app, wb BenchResult
	for rep := 0; rep < 5; rep++ {
		app = best(app, "FlightRecorderAppend", FlightRecorderAppendBench)
		wb = best(wb, "WriteBarrier", WriteBarrierBench)
	}
	if app.AllocsPerOp != 0 {
		t.Errorf("steady-state append allocates: %d allocs/op (%d B/op)", app.AllocsPerOp, app.BytesPerOp)
	}
	ratio := app.NsPerOp / wb.NsPerOp
	t.Logf("append %.1f ns/op, WriteBarrier %.1f ns/op: %.2f×, budget %.2f×", app.NsPerOp, wb.NsPerOp, ratio, budgetRatio)
	if ratio > budgetRatio {
		t.Errorf("steady-state append too slow: %.1f ns/op = %.2f× WriteBarrier (%.1f ns/op), budget %.2f×",
			app.NsPerOp, ratio, wb.NsPerOp, budgetRatio)
	}
}

// TestFlightRecorderCellNonPerturbing runs the contended 2+8 cell bare and
// with the recorder attached: virtual-time results must be identical (the
// recorder is a pure observer) and the ring must actually hold the run's
// tail. This is the correctness half of the off/on overhead pair.
func TestFlightRecorderCellNonPerturbing(t *testing.T) {
	p := CellParams(ScaleSmall, true, Mix{High: 2, Low: 8}, 40)
	bare, err := runCell(Modified, p, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := fr.New(fr.Config{Triggers: fr.DefaultTriggers()})
	observed, err := runCell(Modified, p, rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if bare.HighSpan != observed.HighSpan || bare.OverallSpan != observed.OverallSpan || bare.Stats != observed.Stats {
		t.Errorf("recorder perturbed the cell:\nbare     %+v\nobserved %+v", bare, observed)
	}
	if rec.Len() == 0 {
		t.Error("recorder captured no events")
	}
	events, err := rec.Events()
	if err != nil {
		t.Fatalf("ring decode: %v", err)
	}
	if len(events) != rec.Len() {
		t.Errorf("decoded %d events, ring reports %d", len(events), rec.Len())
	}
}
