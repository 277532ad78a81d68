// CI bench-regression gate: re-measures the key wall-clock
// micro-benchmarks and compares each against its most recent committed
// measurement in the results/BENCH_*.json trajectory, failing when any key
// ns/op regresses past a threshold.
package bench

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"testing"

	"repro/internal/interp"
)

// gateReps is how many times each key benchmark runs in the gate; the best
// (minimum) ns/op is compared. Minimum-of-N is the standard defense
// against scheduler noise on shared CI machines: slowdowns are noise,
// speedups are not.
const gateReps = 3

// KeyBench is one gated benchmark.
type KeyBench struct {
	Name string
	Body func(b *testing.B)
}

// KeyBenches returns the ns/op series the regression gate guards: the
// write-barrier fast paths, the flight recorder's steady-state append,
// the critical-path DAG build over a recorded cell stream, the
// compact lock word's uncontended operations (including the engine-level
// "nonrevocable" enter interpreted sections take and the "confined"
// charge-only no-op a certified whole-monitor elision compiles to), the
// ConfinedMonitorEnterExit off/on pair the escape analysis buys end to
// end, the execution-tier dispatch comparison, the interpreter's
// call/return pair on every tier, and the scheduler's context switch.
func KeyBenches() []KeyBench {
	kb := []KeyBench{
		{"WriteBarrier", WriteBarrierBench},
		{"ElidedWriteBarrier", ElidedWriteBarrierBench},
		{"FlightRecorderAppend", FlightRecorderAppendBench},
		{"CritPathBuild", CritPathBuildBench},
	}
	for _, v := range MonitorVariants {
		kb = append(kb, KeyBench{"MonitorEnterUncontended/" + v, MonitorEnterUncontendedBench(v)})
		kb = append(kb, KeyBench{"MonitorExitUncontended/" + v, MonitorExitUncontendedBench(v)})
	}
	kb = append(kb,
		KeyBench{"ConfinedMonitorEnterExit/off", ConfinedMonitorEnterExitBench(false)},
		KeyBench{"ConfinedMonitorEnterExit/on", ConfinedMonitorEnterExitBench(true)},
	)
	for _, p := range TierPrograms {
		for _, tier := range []interp.Tier{interp.TierThreaded, interp.TierOpt} {
			kb = append(kb, KeyBench{"TierDispatch/" + p.Name + "/" + tier.String(), TierDispatchBench(p, tier)})
		}
	}
	for _, tier := range Tiers {
		kb = append(kb, KeyBench{"InterpInvokeReturn/" + tier.String(), InterpInvokeReturnBench(tier)})
	}
	kb = append(kb, KeyBench{"ContextSwitch", ContextSwitchBench})
	return kb
}

// GateEntry is one benchmark's verdict.
type GateEntry struct {
	Name     string  `json:"name"`
	Baseline float64 `json:"baseline_ns_per_op"` // 0 when missing from baseline
	Current  float64 `json:"current_ns_per_op"`
	DeltaPct float64 `json:"delta_pct"` // (current-baseline)/baseline*100
	// Missing: the baseline report predates this benchmark — informational.
	Missing bool `json:"missing,omitempty"`
	// Regressed: current exceeds baseline by more than the threshold.
	Regressed bool `json:"regressed,omitempty"`
}

// GateResult is the full gate outcome plus the fresh measurements as a
// Report, ready to append to a trajectory file (the CI artifact).
type GateResult struct {
	BaselinePath  string
	BaselineLabel string
	BaselineDate  string
	Threshold     float64 // fractional, e.g. 0.20
	Entries       []GateEntry
	Report        Report
}

// Failed reports whether any gated benchmark regressed past the threshold.
func (g GateResult) Failed() bool {
	for _, e := range g.Entries {
		if e.Regressed {
			return true
		}
	}
	return false
}

// LatestReport finds the newest results/BENCH_*.json in dir (the date-named
// files sort lexicographically) and returns its last report. ok is false
// when the directory holds no trajectory yet.
func LatestReport(dir string) (Report, string, bool, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return Report{}, "", false, err
	}
	sort.Strings(matches)
	for i := len(matches) - 1; i >= 0; i-- {
		reports, err := LoadReports(matches[i])
		if err != nil {
			return Report{}, "", false, err
		}
		if len(reports) > 0 {
			return reports[len(reports)-1], matches[i], true, nil
		}
	}
	return Report{}, "", false, nil
}

// SeriesBaselines returns each benchmark's ns/op from the newest report in
// dir's BENCH_*.json files that measured it. A trajectory entry recording
// only some series (say, the before/after pair of one change) so leaves
// every other series' baseline where it was.
func SeriesBaselines(dir string) (map[string]float64, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(matches)
	base := map[string]float64{}
	for _, path := range matches { // oldest first: newer reports overwrite
		reports, err := LoadReports(path)
		if err != nil {
			return nil, err
		}
		for _, r := range reports {
			for _, b := range r.Benchmarks {
				base[b.Name] = b.NsPerOp
			}
		}
	}
	return base, nil
}

// RunGate measures every key benchmark (best of gateReps) and compares it
// against its newest committed measurement in resultsDir (SeriesBaselines).
// progress, if non-nil, sees each verdict as it lands.
func RunGate(resultsDir, label, date string, threshold float64, progress func(GateEntry)) (GateResult, error) {
	baseline, path, ok, err := LatestReport(resultsDir)
	if err != nil {
		return GateResult{}, err
	}
	if !ok {
		return GateResult{}, fmt.Errorf("bench: no BENCH_*.json trajectory in %s to gate against", resultsDir)
	}
	base, err := SeriesBaselines(resultsDir)
	if err != nil {
		return GateResult{}, err
	}

	g := GateResult{
		BaselinePath:  path,
		BaselineLabel: baseline.Label,
		BaselineDate:  baseline.Date,
		Threshold:     threshold,
	}
	g.Report = Report{
		Label:     label,
		Date:      date,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
	}

	for _, kb := range KeyBenches() {
		best := measure(kb.Name, kb.Body)
		for rep := 1; rep < gateReps; rep++ {
			if r := measure(kb.Name, kb.Body); r.NsPerOp < best.NsPerOp {
				best = r
			}
		}
		g.Report.Benchmarks = append(g.Report.Benchmarks, best)

		e := GateEntry{Name: kb.Name, Current: best.NsPerOp}
		if b, found := base[kb.Name]; found && b > 0 {
			e.Baseline = b
			e.DeltaPct = (best.NsPerOp - b) / b * 100
			e.Regressed = best.NsPerOp > b*(1+threshold)
		} else {
			e.Missing = true
		}
		g.Entries = append(g.Entries, e)
		if progress != nil {
			progress(e)
		}
	}
	return g, nil
}
