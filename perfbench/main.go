// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload closed-loop in this process, checks every request's
// simulated result, and prints host-time metrics by name with units; the
// last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics.
//
//	perfbench --workload paper-cells|rvm-sync|rvm-compute|rvm-sync-fr \
//	          --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 the
// per-layer ones: spans around calls into each module, exact counts,
// unit-cost probes, the layer ledger, CPU-profile shares and the tracing
// overhead. The traced run also writes its spans and CPU profile under
// --out. --pin prints the reference digests of the default seed in the
// format of pinned.json. NOTES.md explains the workloads and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"
)

// setupReps is how often the set-up phase runs before the timed window,
// and again after it; setup_s is the median of all repetitions.
const setupReps = 3

// metric is one reported number.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

func main() {
	start := time.Now()
	var (
		name    = flag.String("workload", "", "workload: paper-cells, rvm-sync, rvm-compute or rvm-sync-fr")
		seed    = flag.Int64("seed", defaultSeed, "seed the workload's inputs are derived from")
		seconds = flag.Float64("seconds", 10, "length of the timed window in seconds")
		traced  = flag.Int("trace", 0, "1: report per-layer metrics from a traced run instead of end-to-end metrics")
		outDir  = flag.String("out", filepath.Join(".bench_build", "traces"), "directory for the traced run's span and CPU-profile files")
		pin     = flag.Bool("pin", false, "print the default seed's reference digests as pinned.json and exit")
	)
	flag.Parse()
	// The VM scheduler runs one goroutine at a time. One P keeps its
	// goroutine handoffs on one core, which makes host times far steadier
	// on a shared machine than handoffs between cores.
	runtime.GOMAXPROCS(1)
	if *pin {
		if err := printPins(); err != nil {
			fatal(err)
		}
		return
	}
	if *traced != 0 && *traced != 1 {
		fatal(fmt.Errorf("--trace wants 0 or 1, got %d", *traced))
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("--seconds wants a positive length, got %v", *seconds))
	}
	if *traced == 1 {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fatal(err)
		}
	}

	// Set-up is repeated so that setup_s is a median: setupReps times
	// before the timed window (the last workload built is the one timed)
	// and setupReps times after it, so the repetitions sample the host at
	// two moments at least --seconds apart. The ledger's unit costs are the
	// medians over all these calibrations for the same reason. The first
	// repetition is timed from process start.
	var (
		w      *workload
		costs  []unitCosts
		warm   loopResult
		setups setupTimes
	)
	for r := 0; r < setupReps; r++ {
		t0 := time.Now()
		if r == 0 {
			t0 = start
		}
		var u unitCosts
		w, u = setUp(*name, *seed, &warm)
		costs = append(costs, u)
		setups.add(t0)
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var (
		sp  *spanRec
		cpu bytes.Buffer
	)
	if *traced == 1 {
		sp = newSpanRec()
		if err := pprof.StartCPUProfile(&cpu); err != nil {
			fatal(err)
		}
	}
	res := w.run(newSequence(*seed, w.inputs), time.Duration(*seconds*float64(time.Second)), sp)
	if sp != nil {
		pprof.StopCPUProfile()
	}
	runtime.ReadMemStats(&m1)
	setups.before = 0 // the last calibration is a window old
	for r := 0; r < setupReps; r++ {
		t0 := time.Now()
		_, u := setUp(*name, *seed, &warm)
		costs = append(costs, u)
		setups.add(t0)
	}

	host := hostFingerprint(".")
	attempted, failed := res.attempted+warm.attempted, res.failed+warm.failed
	for _, f := range append(warm.failures, res.failures...) {
		fmt.Fprintln(os.Stderr, "perfbench: failed request:", f)
	}

	var ms, raw []metric
	if sp == nil {
		// Gated timings are normalized to the reference host speed (see
		// calib.go); the raw host figures are printed beside them.
		speed := speedFactors(res.at, res.cal)
		norm := make([]float64, len(res.lat))
		var busy float64
		for i, l := range res.lat {
			norm[i] = l * speed[i]
			busy += norm[i] / 1e3
		}
		ms = []metric{
			{"setup_s", quantile(setups.norm, 0.5), "s"},
			{"req_ms_p50", quantile(norm, 0.5), "ms"},
			{"req_ms_p90", quantile(norm, 0.9), "ms"},
			{"req_per_s", float64(len(norm)) / busy, "1/s"},
			{"alloc_kb_per_req", float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / float64(len(res.lat)), "kB"},
			{"peak_rss_mb", peakRSSMB(), "MB"},
		}
		raw = []metric{
			{"raw.setup_s", quantile(setups.raw, 0.5), "s"},
			{"raw.req_ms_p50", quantile(res.lat, 0.5), "ms"},
			{"raw.req_ms_p90", quantile(res.lat, 0.9), "ms"},
			{"raw.req_per_s", float64(len(res.lat)) / res.elapsed.Seconds(), "1/s"},
			{"host.speed", quantile(speed, 0.5), "x"},
		}
	} else {
		var err error
		if ms, err = layerMetrics(&res, sp, medianCosts(costs), cpu.Bytes()); err != nil {
			fatal(err)
		}
		if err := writeTraceFiles(*outDir, *name, *seed, host, sp, cpu.Bytes()); err != nil {
			fatal(err)
		}
	}

	summary := map[string]any{
		"workload":     *name,
		"seed":         *seed,
		"trace":        *traced,
		"host":         host,
		"requests":     len(res.lat),
		"setup_reps_s": setups.raw,
		"failed_ratio": float64(failed) / float64(attempted),
	}
	sb, err := json.Marshal(summary)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(sb))
	fmt.Printf("%-30s %16s  %s\n", "metric", "value", "unit")
	for _, m := range append(ms, raw...) {
		fmt.Printf("%-30s %16.4f  %s\n", m.Name, m.Value, m.Unit)
	}
	fmt.Printf("%-30s %16d  %s\n", "requests (samples)", len(res.lat), "count")
	fmt.Printf("%-30s %16.4f  %s\n", "failed_ratio", float64(failed)/float64(attempted), "ratio")

	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Correct: failed == 0 && attempted > 0, Attempted: attempted, Failed: failed, Metrics: map[string]jsonMetric{}}
	for _, m := range ms {
		out.Metrics[m.Name] = jsonMetric{m.Value, m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

// setupTimes collects the set-up repetitions: raw seconds, and the same
// normalized by the host speed measured right before and after each one.
type setupTimes struct {
	raw, norm []float64
	before    float64 // calibration taken after the previous repetition, 0 for none
}

// add records a repetition that started at t0 and ends now. Without a
// calibration from before it, the one after it stands for both.
func (s *setupTimes) add(t0 time.Time) {
	d := time.Since(t0).Seconds()
	after := calibrationSample()
	if s.before == 0 {
		s.before = after
	}
	s.raw = append(s.raw, d)
	s.norm = append(s.norm, d*refCalibrationMs/((s.before+after)/2))
	s.before = after
}

// setUp generates the workload's inputs from the seed, computes its
// references, warms up and calibrates the probes. Warm-up requests are
// checked and counted like timed ones, in warm.
func setUp(name string, seed int64, warm *loopResult) (*workload, unitCosts) {
	w, err := newWorkload(name, seed)
	if err != nil {
		fatal(err)
	}
	if seed == defaultSeed {
		if err := w.pin(); err != nil {
			fatal(err)
		}
	}
	for _, in := range w.warm {
		w.request(in, nil, warm)
	}
	costs, err := calibrate()
	if err != nil {
		fatal(err)
	}
	return w, costs
}

// layerMetrics derives the per-layer metrics of a traced run.
func layerMetrics(res *loopResult, sp *spanRec, u unitCosts, cpuProfile []byte) ([]metric, error) {
	if res.traced == 0 {
		return nil, fmt.Errorf("no traced request completed")
	}
	n := float64(res.traced)
	per := func(x int64) float64 { return float64(x) / n }
	lt := sp.layerTimes()
	spanUs := func(name string) float64 { return float64(lt[name].TotalNs) / n / 1e3 }

	s, st := res.sum, res.sum.Stats
	logged := st.EntriesLogged + st.StoresDeduped
	writes := logged + st.BarrierFastPaths
	runMs := spanUs("core.run") / 1e3
	ledger := []metric{
		{"ledger.sched_ms", per(st.ContextSwitches) * u["sched.switch_ns"] / 1e6, "ms"},
		{"ledger.monitor_ms", per(s.Acquisitions) * u["monitor.enter_exit_ns"] / 1e6, "ms"},
		{"ledger.engine_ms", per(s.Acquisitions) * max(0, u["core.engine_enter_exit_ns"]-u["monitor.enter_exit_ns"]) / 1e6, "ms"},
		{"ledger.barrier_ms", (per(logged)*u["core.write_barrier_ns"] + per(st.BarrierFastPaths)*u["core.write_fast_ns"] + per(s.Reads)*u["core.read_barrier_ns"]) / 1e6, "ms"},
		{"ledger.rollback_ms", per(st.EntriesUndone) * u["undo.rollback_ns_per_entry"] / 1e6, "ms"},
		{"ledger.fr_ms", per(s.FREvents) * u["fr.append_ns"] / 1e6, "ms"},
	}
	residual := runMs
	for _, m := range ledger {
		residual -= m.Value
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}

	ms := []metric{
		{"bytecode.assemble_us", spanUs("bytecode.assemble"), "us"},
		{"bytecode.verify_us", spanUs("bytecode.verify"), "us"},
		{"rewrite.rewrite_us", spanUs("rewrite.rewrite"), "us"},
		{"analysis.analyze_us", spanUs("analysis.analyze"), "us"},
		{"rewrite.elide_us", spanUs("rewrite.elide"), "us"},
		{"interp.newenv_us", spanUs("interp.newenv"), "us"},
		{"core.setup_us", spanUs("core.setup"), "us"},
		{"core.run_ms", runMs, "ms"},
		{"bench.self_us", float64(lt["request"].SelfNs) / n / 1e3, "us"},

		{"sched.context_switches", per(st.ContextSwitches), "count"},
		{"monitor.acquisitions", per(s.Acquisitions), "count"},
		{"monitor.thin_acquisitions", per(st.ThinAcquisitions), "count"},
		{"monitor.inflations", per(st.Inflations), "count"},
		{"core.inversions", per(st.Inversions), "count"},
		{"core.revocation_requests", per(st.RevocationRequests), "count"},
		{"core.rollbacks", per(st.Rollbacks), "count"},
		{"undo.entries_logged", per(st.EntriesLogged), "count"},
		{"undo.entries_undone", per(st.EntriesUndone), "count"},
		{"core.stores_deduped", per(st.StoresDeduped), "count"},
		{"core.barrier_fast_paths", per(st.BarrierFastPaths), "count"},
		{"core.barrier_writes", per(writes), "count"},
		{"core.barrier_reads", per(s.Reads), "count"},
		{"core.raw_stores", per(st.RawStores), "count"},
		{"core.vticks", per(int64(s.Clock)), "ticks"},
		{"interp.opt_methods", per(int64(s.OptMethods)), "count"},
		{"fr.events", per(s.FREvents), "count"},
		{"fr.lost", per(s.FRLost), "count"},

		{"core.useful_ratio", 1 - ratio(float64(st.WastedTicks), float64(s.Clock)), "ratio"},
		{"core.revoke_ratio", per(st.Rollbacks), "ratio"},
		{"core.dedup_ratio", ratio(float64(st.StoresDeduped), float64(st.StoresDeduped+st.EntriesLogged)), "ratio"},
	}
	for _, p := range probes {
		ms = append(ms, metric{p.name, u[p.name], "ns"})
	}
	ms = append(ms, ledger...)
	ms = append(ms, metric{"ledger.residual_ms", residual, "ms"})

	shares, _, err := cpuShares(cpuProfile)
	if err != nil {
		return nil, err
	}
	for _, b := range cpuBuckets {
		ms = append(ms, metric{"cpu." + b + "_share", shares[b], "ratio"})
	}
	untraced := quantile(res.lat, 0.5)
	ms = append(ms, metric{"trace.overhead_pct", 100 * (quantile(res.tracedLat, 0.5)/untraced - 1), "%"})
	return ms, nil
}

// writeTraceFiles stores the traced run's spans and CPU profile.
func writeTraceFiles(dir, name string, seed int64, host fingerprint, sp *spanRec, cpuProfile []byte) error {
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", name, seed))
	meta := map[string]any{"workload": name, "seed": seed, "host": host}
	if err := sp.write(base+".spans.json", meta); err != nil {
		return err
	}
	return os.WriteFile(base+".cpu.pprof", cpuProfile, 0o644)
}

// printPins prints the reference digest of every input of the default
// seed, as stored in pinned.json.
func printPins() error {
	pins := map[string][]string{}
	for _, name := range workloadNames {
		if name == "rvm-sync-fr" {
			continue // shares rvm-sync's references
		}
		w, err := newWorkload(name, defaultSeed)
		if err != nil {
			return err
		}
		for in := 0; in < w.inputs; in++ {
			if err := w.refErr[in]; err != nil {
				return err
			}
			if w.ref[in] == 0 {
				o, err := w.exec(in, nil, -1)
				if err != nil {
					return err
				}
				w.ref[in] = o.digest()
			}
			pins[name] = append(pins[name], fmt.Sprintf("%016x", w.ref[in]))
		}
	}
	b, err := json.MarshalIndent(pins, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
