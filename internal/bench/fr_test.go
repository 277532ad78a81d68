package bench

import (
	"flag"
	"sort"
	"testing"

	"repro/internal/fr"
)

// appendBudgetLoops is the steady-state append budget in calibration-loop
// passes (calibrationBench). The reference host's budget was 50 ns, 4.29×
// its committed WriteBarrier figure (the escape-confined-elision entry of
// results/BENCH_2026-08-08.json). WriteBarrier was only a host-speed
// stand-in there, and one that barrier optimizations move, so the budget
// is re-expressed against a loop no change to the VM can speed up or slow
// down. With the barrier code of the commit before the clock-held
// fast-charge bound, on a 2-core Xeon host (go1.24, GOMAXPROCS 2), five
// derivations, each the best of five interleaved runs, gave WriteBarrier
// = 0.276, 0.280, 0.311, 0.313 and 0.375 loop passes. The median gives
// 4.29 × 0.311 = 1.33.
//
// The race detector slows the write barrier, the loop and the recorder by
// different factors, so a race build carries the budget over through the
// same ratio measured under -race: 1.168, 1.204, 1.208, 1.293 and 1.311
// loop passes, median 4.29 × 1.208 = 5.18. That is exactly as strict as
// the WriteBarrier budget was under -race.
const (
	appendBudgetLoops     = 1.33
	appendBudgetLoopsRace = 5.18
)

// calSink keeps calibrationBench's result live.
var calSink int

// calibrationBench times one pass of a fixed pure-Go loop: a small switch
// interpreter over eight instructions with map and slice traffic, the
// kinds of work the VM does. It calls no repository code.
func calibrationBench(b *testing.B) {
	type op struct{ code, arg int }
	prog := [...]op{{0, 3}, {1, 7}, {2, 1}, {3, 5}, {4, 0}, {1, 2}, {5, 9}, {2, 4}}
	m := make(map[int]int, 64)
	for i := 0; i < 64; i++ {
		m[i] = 0
	}
	buf := make([]int, 4096)
	acc := 1
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for j, in := range prog {
			i := n*len(prog) + j
			switch in.code {
			case 0:
				acc += in.arg
			case 1:
				acc *= in.arg
			case 2:
				m[(acc+i)&63] += in.arg
			case 3:
				buf[(acc*31+i)&4095] = acc
			case 4:
				acc ^= buf[(i*17)&4095]
			case 5:
				acc -= m[i&63]
			}
		}
	}
	calSink += acc
}

// TestFlightRecorderAppendBudget pins the recorder's headline contract: a
// steady-state append stays allocation-free and costs at most
// appendBudgetLoops passes of the calibration loop (appendBudgetLoopsRace
// under -race), so the bound is as strict as the reference host's
// absolute one while holding on any host speed. The allocation bound is
// exact (the Go allocator is deterministic). The timing runs 21 rounds,
// each a 100 ms append run followed by a 100 ms loop run, and takes the
// median round's ratio: host speed on shared machines swings by half
// within seconds — including while the parallel packages of a full
// `go test ./...` compete for cores — so the two series' best runs may
// come from different spells, while a round's two short runs see the same
// speed and the median of many rounds barely moves between test runs.
func TestFlightRecorderAppendBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("timing budget under -short")
	}
	benchtime := flag.Lookup("test.benchtime").Value
	prev := benchtime.String()
	if err := benchtime.Set("100ms"); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = benchtime.Set(prev) }() // prev parsed once already
	type round struct{ app, loop BenchResult }
	rounds := make([]round, 21)
	for i := range rounds {
		rounds[i] = round{measure("FlightRecorderAppend", FlightRecorderAppendBench), measure("Calibration", calibrationBench)}
		if a := rounds[i].app; a.AllocsPerOp != 0 {
			t.Fatalf("steady-state append allocates: %d allocs/op (%d B/op)", a.AllocsPerOp, a.BytesPerOp)
		}
	}
	ratio := func(r round) float64 { return r.app.NsPerOp / r.loop.NsPerOp }
	sort.Slice(rounds, func(i, j int) bool { return ratio(rounds[i]) < ratio(rounds[j]) })
	med := rounds[len(rounds)/2]
	budget := appendBudgetLoops
	if raceEnabled {
		budget = appendBudgetLoopsRace
	}
	t.Logf("append %.1f ns/op, calibration loop %.1f ns/op: %.2f×, budget %.2f×", med.app.NsPerOp, med.loop.NsPerOp, ratio(med), budget)
	if ratio(med) > budget {
		t.Errorf("steady-state append too slow: %.1f ns/op = %.2f× the calibration loop (%.1f ns/op), budget %.2f×",
			med.app.NsPerOp, ratio(med), med.loop.NsPerOp, budget)
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
