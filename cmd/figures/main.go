// Command figures regenerates the evaluation figures of "Preemption-Based
// Avoidance of Priority Inversion for Java" (ICPP 2004): Figures 5 and 6
// (total elapsed time of high-priority threads at 100K / 500K inner
// iterations) and Figures 7 and 8 (overall elapsed time), each across the
// paper's three thread mixes and six write ratios, on both the modified
// (revocation) and unmodified VM.
//
// Usage:
//
//	figures [-figure N|all] [-scale small|medium|paper] [-csv dir] [-summary] [-v]
//	figures -json results/BENCH_2026-08-05.json [-label NAME]
//	figures -gate results [-gate-json out.json] [-gate-threshold PCT]
//	figures -fleet [-fleet-json out.json] INPUT...
//
// Examples:
//
//	figures -figure 5                  # one figure, quick
//	figures -figure all -scale medium  # the full evaluation
//	figures -figure all -csv out      # also write CSV files
//
// With -json, the wall-clock benchmark suite (barrier/rollback
// micro-benchmarks plus every Figure 5–8 panel) runs under
// testing.Benchmark and its ns/op, B/op and allocs/op are APPENDED to the
// JSON array in the given file — run it before and after a change to record
// a before/after pair in one results/BENCH_<date>.json.
//
// With -fleet, the positional arguments are flight-recorder dumps (.rvmfr)
// and/or BENCH_*.json trajectory files; their latency distributions are
// merged into one p50/p99/p99.9 fleet SLO report (same engine as `rvmfr
// merge`).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/bench"
	"repro/internal/fr"
)

func main() {
	var (
		figure   = flag.String("figure", "all", "figure number (5-8) or \"all\"")
		scale    = flag.String("scale", "small", "run scale: small, medium or paper")
		csvDir   = flag.String("csv", "", "directory to write per-figure CSV files into")
		summary  = flag.Bool("summary", true, "print the headline-claims comparison (requires all figures)")
		verbose  = flag.Bool("v", false, "print per-cell progress")
		cell     = flag.String("cell", "", "run one cell instead: \"HIGH+LOW@WRITES%\", e.g. \"2+8@40\" (uses -figure for the variant)")
		jsonOut  = flag.String("json", "", "append wall-clock benchmark results to this JSON file instead of rendering figures")
		label    = flag.String("label", "current", "label recorded with -json results")
		gateDir  = flag.String("gate", "", "bench-regression gate: compare each key ns/op against its newest measurement in this directory's BENCH_*.json files, exit 1 on regression")
		gateOut  = flag.String("gate-json", "", "with -gate, also write the fresh gate measurements to this JSON file (the CI artifact)")
		gatePct  = flag.Float64("gate-threshold", 20, "with -gate, regression threshold in percent")
		fleet    = flag.Bool("fleet", false, "merge flight-recorder dumps and BENCH_*.json files (positional args) into a fleet SLO report")
		fleetOut = flag.String("fleet-json", "", "with -fleet, also write the merged report as JSON to this file")
	)
	flag.Parse()

	if *fleet {
		runFleet(flag.Args(), *fleetOut)
		return
	}

	if *gateDir != "" {
		runGate(*gateDir, *gateOut, *label, *gatePct)
		return
	}

	if *jsonOut != "" {
		runJSONReport(*jsonOut, *label)
		return
	}

	sc, err := bench.ParseScale(*scale)
	if err != nil {
		fatal(err)
	}

	if *cell != "" {
		runSingleCell(*cell, *figure, sc)
		return
	}

	var numbers []int
	if *figure == "all" {
		for n := range bench.Specs {
			numbers = append(numbers, n)
		}
		sort.Ints(numbers)
	} else {
		var n int
		if _, err := fmt.Sscanf(*figure, "%d", &n); err != nil {
			fatal(fmt.Errorf("bad -figure %q: %v", *figure, err))
		}
		numbers = []int{n}
	}

	var progress bench.Progress
	if *verbose {
		progress = func(mix bench.Mix, wp int, vm bench.VM, res bench.CellResult) {
			fmt.Fprintf(os.Stderr, "  cell %v writes=%d%% %-10v high=%d overall=%d rollbacks=%d\n",
				mix, wp, vm, res.HighSpan, res.OverallSpan, res.Stats.Rollbacks)
		}
	}

	var highFigs, overallFigs []bench.Figure
	for _, n := range numbers {
		start := time.Now()
		fig, err := bench.RunFigure(n, sc, progress)
		if err != nil {
			fatal(err)
		}
		fig.Render(os.Stdout)
		fmt.Fprintf(os.Stderr, "(figure %d took %v)\n", n, time.Since(start).Round(time.Millisecond))
		if fig.Metric == bench.HighPriorityTime {
			highFigs = append(highFigs, fig)
		} else {
			overallFigs = append(overallFigs, fig)
		}
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				fatal(err)
			}
			path := filepath.Join(*csvDir, fmt.Sprintf("figure%d.csv", n))
			f, err := os.Create(path)
			if err != nil {
				fatal(err)
			}
			fig.RenderCSV(f)
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		}
	}

	if *summary && len(highFigs) == 2 && len(overallFigs) == 2 {
		bench.Summarize(highFigs, overallFigs).Render(os.Stdout)
	}
}

// runSingleCell runs one benchmark cell on both VMs — handy at paper scale
// where a full figure takes hours.
func runSingleCell(cell, figure string, sc bench.Scale) {
	var high, low, writes int
	if _, err := fmt.Sscanf(cell, "%d+%d@%d", &high, &low, &writes); err != nil {
		fatal(fmt.Errorf("bad -cell %q (want HIGH+LOW@WRITES, e.g. 2+8@40): %v", cell, err))
	}
	n := 5
	if figure != "all" {
		if _, err := fmt.Sscanf(figure, "%d", &n); err != nil {
			fatal(err)
		}
	}
	spec, ok := bench.Specs[n]
	if !ok {
		fatal(fmt.Errorf("no figure %d", n))
	}
	p := bench.CellParams(sc, spec.ShortHigh, bench.Mix{High: high, Low: low}, writes)
	for _, vm := range []bench.VM{bench.Unmodified, bench.Modified} {
		start := time.Now()
		res, err := bench.RunCell(vm, p)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%-10v high-span=%-12d overall-span=%-12d rollbacks=%-6d re-exec=%-6d (%v)\n",
			vm, res.HighSpan, res.OverallSpan, res.Stats.Rollbacks, res.Stats.Reexecutions,
			time.Since(start).Round(time.Millisecond))
	}
}

// runJSONReport runs the wall-clock suite and appends it to path.
func runJSONReport(path, label string) {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fatal(err)
		}
	}
	// Fail on a malformed target now, not after minutes of benchmarking.
	if _, err := bench.LoadReports(path); err != nil {
		fatal(err)
	}
	progress := func(res bench.BenchResult) {
		fmt.Fprintf(os.Stderr, "  %-28s %12.1f ns/op %8d B/op %6d allocs/op\n",
			res.Name, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp)
	}
	latProgress := func(res bench.LatencyResult) {
		fmt.Fprintf(os.Stderr, "  %-28s %-10s rollback-wasted=%-10d re-exec=%-6d threads-observed=%d\n",
			res.Name, res.VM, res.RollbackWasted.Sum, res.Reexecutions, len(res.BlockingPerThread))
	}
	rep, err := bench.RunReport(label, time.Now().Format("2006-01-02"), progress, latProgress)
	if err != nil {
		fatal(err)
	}
	if err := bench.WriteReport(path, rep); err != nil {
		fatal(err)
	}
	// Profiler digest: the overhead of attribution and where each workload
	// wastes its rolled-back ticks, straight from the recorded pairs.
	for _, pr := range rep.Profiler {
		fmt.Fprintf(os.Stderr, "  %-28s profiler overhead %+.1f%% (off %.0f → on %.0f ns/op)\n",
			pr.Name, pr.OverheadPct, pr.OffNsPerOp, pr.OnNsPerOp)
		for i, site := range pr.TopWaste {
			fmt.Fprintf(os.Stderr, "      waste #%d %-16s pc=%-4d %d ticks\n", i+1, site.Func, site.PC, site.Ticks)
		}
		for i, site := range pr.TopBlock {
			fmt.Fprintf(os.Stderr, "      block #%d %-16s pc=%-4d %d ticks\n", i+1, site.Func, site.PC, site.Ticks)
		}
	}
	fmt.Fprintf(os.Stderr, "appended %q (%d benchmarks, %d profiled cells) to %s\n",
		label, len(rep.Benchmarks), len(rep.Profiler), path)
}

// runGate re-measures the key micro-benchmarks (best of three) and fails
// the process when any ns/op regresses past the threshold relative to its
// newest committed measurement in dir's trajectory files. With outPath, the fresh
// measurements are appended there as a new trajectory entry so CI can
// upload them as an artifact.
func runGate(dir, outPath, label string, thresholdPct float64) {
	if outPath != "" {
		if d := filepath.Dir(outPath); d != "." {
			if err := os.MkdirAll(d, 0o755); err != nil {
				fatal(err)
			}
		}
		if _, err := bench.LoadReports(outPath); err != nil {
			fatal(err)
		}
	}
	progress := func(e bench.GateEntry) {
		switch {
		case e.Missing:
			fmt.Fprintf(os.Stderr, "  %-36s %12.1f ns/op   (no baseline)\n", e.Name, e.Current)
		case e.Regressed:
			fmt.Fprintf(os.Stderr, "  %-36s %12.1f ns/op  %+7.1f%% vs %.1f  REGRESSED\n",
				e.Name, e.Current, e.DeltaPct, e.Baseline)
		default:
			fmt.Fprintf(os.Stderr, "  %-36s %12.1f ns/op  %+7.1f%% vs %.1f  ok\n",
				e.Name, e.Current, e.DeltaPct, e.Baseline)
		}
	}
	g, err := bench.RunGate(dir, label, time.Now().Format("2006-01-02"), thresholdPct/100, progress)
	if err != nil {
		fatal(err)
	}
	if outPath != "" {
		if err := bench.WriteReport(outPath, g.Report); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote gate measurements to %s\n", outPath)
	}
	if g.Failed() {
		fatal(fmt.Errorf("bench gate FAILED: key ns/op regressed >%.0f%% vs the trajectory up to %s (label %q, %s)",
			thresholdPct, g.BaselinePath, g.BaselineLabel, g.BaselineDate))
	}
	fmt.Fprintf(os.Stderr, "bench gate passed: %d benchmarks within %.0f%% of the trajectory up to %s (label %q, %s)\n",
		len(g.Entries), thresholdPct, g.BaselinePath, g.BaselineLabel, g.BaselineDate)
}

// runFleet merges dumps and BENCH trajectory files into the fleet SLO
// report — the aggregation half of the fleet harness (ROADMAP item 3).
func runFleet(inputs []string, outPath string) {
	if len(inputs) == 0 {
		fatal(fmt.Errorf("-fleet needs at least one .rvmfr dump or BENCH_*.json file"))
	}
	rep, err := fr.MergeFleet(inputs)
	if err != nil {
		fatal(err)
	}
	rep.Render(os.Stdout)
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			fatal(err)
		}
		err = rep.WriteJSON(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote fleet SLO report to %s\n", outPath)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "figures:", err)
	os.Exit(1)
}
