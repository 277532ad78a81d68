// Fleet SLO merge: aggregate the latency distributions of many VM
// instances — flight-recorder dumps and results/BENCH_*.json trajectory
// files — into one p50/p99/p99.9 service-level report. This is the fleet
// half of ROADMAP item 3: each dump or report is one instance's view, and
// the SLO question ("what blocking time does the slowest permille see?")
// only exists over their union.
//
// Dumps merge exactly: the event window is replayed through a fresh
// observer, so every raw sample participates. BENCH files carry only
// HistSummary digests; their distributions are reconstituted as weighted
// samples at the digest's percentile values — tails and counts are honored,
// interior shape is approximated — and the report says so via Approximate.
package fr

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/obs"
)

// Fleet series names, in render order.
var fleetSeries = []string{"blocking", "hold", "contention", "rollback_wasted"}

// SLOSeries is one merged distribution of the fleet report.
type SLOSeries struct {
	obs.HistSummary
	// Sources counts how many inputs contributed samples to this series.
	Sources int `json:"sources"`
	// Approximate marks a series that includes digest-reconstituted samples
	// (from BENCH files) rather than only raw ones (from dumps).
	Approximate bool `json:"approximate,omitempty"`
}

// FleetReport is the merged SLO view over a set of instances.
type FleetReport struct {
	SchemaVersion int      `json:"v"`
	Inputs        []string `json:"inputs"`
	DumpCount     int      `json:"dump_count"`
	BenchCount    int      `json:"bench_count"`
	// Series maps series name (blocking, hold, contention, rollback_wasted)
	// to its fleet-wide distribution.
	Series map[string]SLOSeries `json:"series"`
}

// fleetAccum collects samples per series across inputs.
type fleetAccum struct {
	hists   map[string]*obs.Histogram
	sources map[string]int
	approx  map[string]bool
	sums    map[string]int64 // exact sums (digest sums are exact even when shape is not)
}

func newFleetAccum() *fleetAccum {
	return &fleetAccum{
		hists:   make(map[string]*obs.Histogram),
		sources: make(map[string]int),
		approx:  make(map[string]bool),
		sums:    make(map[string]int64),
	}
}

func (a *fleetAccum) hist(series string) *obs.Histogram {
	h, ok := a.hists[series]
	if !ok {
		h = &obs.Histogram{}
		a.hists[series] = h
	}
	return h
}

// addSamples merges raw samples (the exact path).
func (a *fleetAccum) addSamples(series string, samples []int64) {
	if len(samples) == 0 {
		return
	}
	h := a.hist(series)
	for _, v := range samples {
		h.Observe(v)
		a.sums[series] += v
	}
	a.sources[series]++
}

// addDigest reconstitutes a HistSummary as weighted percentile samples (the
// approximate path). Counts are split at the nearest-rank boundaries so the
// merged percentiles respect each digest's P50/P90/P99/P999/Max; the true
// interior shape is lost, which the series' Approximate flag declares.
func (a *fleetAccum) addDigest(series string, d obs.HistSummary) {
	if d.Count == 0 {
		return
	}
	h := a.hist(series)
	n := d.Count
	ranks := []struct {
		upto int64 // cumulative nearest-rank boundary
		v    int64
	}{
		{n * 500 / 1000, d.P50},
		{n * 900 / 1000, d.P90},
		{n * 990 / 1000, d.P99},
		{n * 999 / 1000, d.P999},
		{n, d.Max},
	}
	var emitted int64
	for _, r := range ranks {
		for emitted < r.upto {
			h.Observe(r.v)
			emitted++
		}
	}
	a.sums[series] += d.Sum
	a.sources[series]++
	a.approx[series] = true
}

func (a *fleetAccum) report(inputs []string, dumps, benches int) *FleetReport {
	rep := &FleetReport{
		SchemaVersion: obs.MetricsVersion,
		Inputs:        inputs,
		DumpCount:     dumps,
		BenchCount:    benches,
		Series:        make(map[string]SLOSeries, len(a.hists)),
	}
	for name, h := range a.hists {
		s := h.Summary()
		// Synthesized samples distort the sum; the per-input sums are exact.
		s.Sum = a.sums[name]
		rep.Series[name] = SLOSeries{
			HistSummary: s,
			Sources:     a.sources[name],
			Approximate: a.approx[name],
		}
	}
	return rep
}

// MergeFleet merges flight-recorder dumps (.rvmfr) and benchmark trajectory
// files (BENCH_*.json report arrays) into one fleet SLO report. Inputs are
// sniffed by content, not extension.
func MergeFleet(paths []string) (*FleetReport, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("fr: no fleet inputs")
	}
	acc := newFleetAccum()
	var dumps, benches int
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		switch {
		case bytes.HasPrefix(raw, Magic):
			d, err := ReadDump(bytes.NewReader(raw))
			if err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			mergeDump(acc, d)
			dumps++
		default:
			n, err := mergeBenchFile(acc, raw)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			benches += n
		}
	}
	return acc.report(paths, dumps, benches), nil
}

// mergeDump replays the dump's event window through a fresh observer and
// merges the resulting raw samples — exact, no digest reconstruction.
func mergeDump(acc *fleetAccum, d *Dump) {
	o := obs.NewObserver()
	for _, e := range d.Events {
		o.Emit(e)
	}
	m := o.Metrics()
	var blocking, hold, contention []int64
	for _, h := range m.BlockingPerThreadAll() {
		blocking = append(blocking, h.Samples()...)
	}
	for _, h := range m.HoldPerMonitorAll() {
		hold = append(hold, h.Samples()...)
	}
	for _, h := range m.ContentionPerMonitorAll() {
		contention = append(contention, h.Samples()...)
	}
	acc.addSamples("blocking", blocking)
	acc.addSamples("hold", hold)
	acc.addSamples("contention", contention)
	acc.addSamples("rollback_wasted", m.RollbackWasted().Samples())
}

// benchReport mirrors the fields of bench.Report the merge consumes.
// Declared locally because internal/bench imports fr for the recorder
// benchmarks; importing bench here would close the cycle.
type benchReport struct {
	Label   string `json:"label"`
	Date    string `json:"date"`
	Latency []struct {
		Name              string                     `json:"name"`
		VM                string                     `json:"vm"`
		BlockingPerThread map[string]obs.HistSummary `json:"blocking_per_thread"`
		RollbackWasted    obs.HistSummary            `json:"rollback_wasted"`
	} `json:"latency"`
}

// mergeBenchFile merges every latency digest of a BENCH report array and
// returns how many reports contributed.
func mergeBenchFile(acc *fleetAccum, raw []byte) (int, error) {
	var reports []benchReport
	if err := json.Unmarshal(raw, &reports); err != nil {
		return 0, fmt.Errorf("neither a .rvmfr dump nor a BENCH report array: %v", err)
	}
	n := 0
	for _, rep := range reports {
		if len(rep.Latency) == 0 {
			continue
		}
		n++
		for _, lat := range rep.Latency {
			for _, d := range lat.BlockingPerThread {
				acc.addDigest("blocking", d)
			}
			acc.addDigest("rollback_wasted", lat.RollbackWasted)
		}
	}
	if n == 0 && len(reports) == 0 {
		return 0, fmt.Errorf("empty report array")
	}
	return n, nil
}

// Render writes the report as an aligned text table.
func (r *FleetReport) Render(w io.Writer) {
	fmt.Fprintf(w, "fleet SLO report: %d input(s) — %d dump(s), %d bench report(s)\n",
		len(r.Inputs), r.DumpCount, r.BenchCount)
	names := make([]string, 0, len(r.Series))
	for name := range r.Series {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return seriesRank(names[i]) < seriesRank(names[j]) })
	fmt.Fprintf(w, "  %-18s %8s %12s %8s %8s %8s %8s %6s\n",
		"series", "n", "sum", "p50", "p99", "p99.9", "max", "exact")
	for _, name := range names {
		s := r.Series[name]
		exact := "yes"
		if s.Approximate {
			exact = "no"
		}
		fmt.Fprintf(w, "  %-18s %8d %12d %8d %8d %8d %8d %6s\n",
			name, s.Count, s.Sum, s.P50, s.P99, s.P999, s.Max, exact)
	}
}

// WriteJSON writes the report as indented JSON.
func (r *FleetReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

func seriesRank(name string) int {
	for i, s := range fleetSeries {
		if s == name {
			return i
		}
	}
	return len(fleetSeries) + len(name)
}
