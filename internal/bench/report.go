// Benchmark report emission: cmd/figures -json runs the wall-clock
// benchmark suite (the Figure 5–8 panels plus the barrier/rollback
// micro-benchmarks) through testing.Benchmark and appends the results to a
// JSON file, so results/BENCH_<date>.json files record the performance
// trajectory of the mechanism across changes.
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"testing"

	"repro/internal/interp"
)

// BenchResult is one benchmark's wall-clock outcome. Stats carries
// benchmark-specific counters (e.g. how many store barriers the static
// elision removed) alongside the timing.
type BenchResult struct {
	Name        string           `json:"name"`
	Iterations  int              `json:"iterations"`
	NsPerOp     float64          `json:"ns_per_op"`
	BytesPerOp  int64            `json:"bytes_per_op"`
	AllocsPerOp int64            `json:"allocs_per_op"`
	Stats       map[string]int64 `json:"stats,omitempty"`
}

// Report is one labelled run of the suite. Files written by WriteReport hold
// a JSON array of Reports, oldest first.
type Report struct {
	Label      string        `json:"label"`
	Date       string        `json:"date"`
	GoVersion  string        `json:"go_version"`
	GOOS       string        `json:"goos"`
	GOARCH     string        `json:"goarch"`
	Benchmarks []BenchResult `json:"benchmarks"`
	// Host fingerprints the machine of a same-host A/B entry: CPU model
	// and GOMAXPROCS. Entries are comparable only when it matches.
	Host string `json:"host,omitempty"`
	// Latency holds the per-thread blocking-time and rollback wasted-work
	// distributions of representative observed cells (see RunLatency).
	Latency []LatencyResult `json:"latency,omitempty"`
	// Profiler holds the profiler-off-vs-on overhead pairs and profile
	// digests (top waste/block sites) of representative cells (see
	// RunProfiled).
	Profiler []ProfiledResult `json:"profiler,omitempty"`
	// CritPath holds the critical-path digests of representative cells —
	// class totals tiling the makespan and the top critical vs raw
	// monitors (see RunCritPath).
	CritPath []CritPathResult `json:"critpath,omitempty"`
}

// measure runs one benchmark body under testing.Benchmark.
func measure(name string, body func(b *testing.B)) BenchResult {
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		body(b)
	})
	nsPerOp := float64(r.T.Nanoseconds()) / float64(r.N)
	// A body that reports its own "ns/op" metric (e.g. the monitor pair
	// benchmarks, which time two operations per iteration) overrides the
	// per-iteration default.
	if v, ok := r.Extra["ns/op"]; ok {
		nsPerOp = v
	}
	return BenchResult{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     nsPerOp,
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
}

// RunReport executes the benchmark suite: the three barrier/rollback
// micro-benchmarks, all twelve figure panels at ScaleSmall, the observed
// latency cells (RunLatency), and the profiler overhead pairs
// (RunProfiled). progress and latProgress, if non-nil, are called with
// each finished result.
func RunReport(label, date string, progress func(BenchResult), latProgress func(LatencyResult)) (Report, error) {
	rep := Report{
		Label:     label,
		Date:      date,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
	}
	add := func(res BenchResult) {
		rep.Benchmarks = append(rep.Benchmarks, res)
		if progress != nil {
			progress(res)
		}
	}
	add(measure("WriteBarrier", WriteBarrierBench))
	add(measure("ReadBarrier", ReadBarrierBench))
	add(measure("Rollback", RollbackBench))
	add(measure("ElidedWriteBarrier", ElidedWriteBarrierBench))

	// Flight recorder: the per-event append cost and the whole-cell
	// off/on pair, so every report records the overhead of always-on
	// recording alongside the figures it would capture.
	add(measure("FlightRecorderAppend", FlightRecorderAppendBench))

	// Critical-path attribution: the post-run DAG build + path extraction
	// cost over a recorded cell stream (what -critpath adds to a run).
	add(measure("CritPathBuild", CritPathBuildBench))
	add(measure("FlightRecorderCell/off", FlightRecorderCellBench(false)))
	add(measure("FlightRecorderCell/on", FlightRecorderCellBench(true)))

	// Compact lock word: uncontended enter/exit per variant.
	for _, v := range MonitorVariants {
		add(measure("MonitorEnterUncontended/"+v, MonitorEnterUncontendedBench(v)))
		add(measure("MonitorExitUncontended/"+v, MonitorExitUncontendedBench(v)))
	}

	// Whole-monitor elision pair: the same confined-lock loop with real
	// thin-lock monitors and with the certified elision applied; the
	// off/on delta is what the escape analysis buys per monitor op.
	add(measure("ConfinedMonitorEnterExit/off", ConfinedMonitorEnterExitBench(false)))
	add(measure("ConfinedMonitorEnterExit/on", ConfinedMonitorEnterExitBench(true)))

	// Execution-tier dispatch: fused superinstructions on the dispatch
	// workloads.
	for _, p := range TierPrograms {
		add(measure("TierDispatch/"+p.Name+"/opt", TierDispatchBench(p, interp.TierOpt)))
	}

	// The interpreter's call path on every tier, the scheduler round trip
	// every handoff between VM threads pays, and the yield point every
	// instruction passes.
	for _, tier := range Tiers {
		add(measure("InterpInvokeReturn/"+tier.String(), InterpInvokeReturnBench(tier)))
	}
	add(measure("ContextSwitch", ContextSwitchBench))
	add(measure("YieldPoint", StepBench))

	// Barriers-vs-elided pair: identical program, with and without the
	// static analysis; the stats record the elided-store counts.
	for _, v := range []struct {
		name   string
		static bool
	}{{"StaticElision/allBarriers", false}, {"StaticElision/elided", true}} {
		counts := make(map[string]int64)
		res := measure(v.name, ElisionBenchBody(v.static, counts))
		res.Stats = counts
		add(res)
	}

	var figures []int
	for n := range Specs {
		figures = append(figures, n)
	}
	sort.Ints(figures)
	var runErr error
	for _, n := range figures {
		for panel, mix := range Mixes {
			name := fmt.Sprintf("Figure%d/%s_%dhigh%dlow",
				n, string(rune('A'+panel)), mix.High, mix.Low)
			num := n
			pi := panel
			add(measure(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					fig, err := RunFigure(num, ScaleSmall, nil)
					if err != nil {
						runErr = err
						b.Skip(err)
						return
					}
					_ = fig.Panels[pi]
				}
			}))
			if runErr != nil {
				return rep, runErr
			}
		}
	}

	lat, err := RunLatency(latProgress)
	if err != nil {
		return rep, err
	}
	rep.Latency = lat

	profiled, err := RunProfiled(func(pr ProfiledResult) {
		if progress != nil {
			progress(BenchResult{
				Name:       pr.Name + "/on",
				Iterations: 1,
				NsPerOp:    pr.OnNsPerOp,
				Stats: map[string]int64{
					"overhead_pct_x100": int64(pr.OverheadPct * 100),
					"waste_ticks":       pr.WasteTicks,
				},
			})
		}
	})
	if err != nil {
		return rep, err
	}
	rep.Profiler = profiled

	critpath, err := RunCritPath(func(cr CritPathResult) {
		if progress != nil {
			progress(BenchResult{
				Name:       cr.Name,
				Iterations: 1,
				Stats: map[string]int64{
					"final_clock": cr.FinalClock,
					"waste_ticks": cr.WasteTicks,
					"block_ticks": cr.BlockTicks,
				},
			})
		}
	})
	if err != nil {
		return rep, err
	}
	rep.CritPath = critpath
	return rep, nil
}

// LoadReports reads the report array in path; a missing file is an empty
// trajectory. Callers about to run the (slow) suite should call this first
// so an unwritable target fails before the benchmarks run, not after.
func LoadReports(path string) ([]Report, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var reports []Report
	if err := json.Unmarshal(data, &reports); err != nil {
		return nil, fmt.Errorf("bench: %s exists but is not a report array: %v", path, err)
	}
	return reports, nil
}

// WriteReport appends rep to the JSON array in path (creating the file if
// absent), so repeated runs against one file accumulate a trajectory.
func WriteReport(path string, rep Report) error {
	reports, err := LoadReports(path)
	if err != nil {
		return err
	}
	reports = append(reports, rep)
	data, err := json.MarshalIndent(reports, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
