// Command rvmrun assembles and executes a bytecode program on the
// reproduction's virtual machine, optionally applying the paper's bytecode
// rewriting and running on the revocation-enabled ("modified") VM.
//
// Usage:
//
//	rvmrun [-vm unmodified|revocation] [-rewrite] [-static] [-race] [-deadlock]
//	       [-tier exec|opt] [-quantum N] [-trace] [-disasm] [-stats]
//	       [-trace-out FILE] [-trace-format text|jsonl|perfetto]
//	       [-metrics text|json] [-metrics-out FILE] program.rvm
//
// The program file uses the assembler syntax of internal/bytecode (see the
// Assemble documentation and examples/bytecode/inversion.rvm). Threads are
// declared with `thread NAME priority N run METHOD`.
//
// Observability: -trace-out with -trace-format=jsonl streams the run as
// schema-versioned JSON lines (validate with cmd/tracecheck);
// -trace-format=perfetto writes a Chrome trace-event JSON file that opens
// directly in ui.perfetto.dev, with one track per VM thread and flow arrows
// from each revocation request to the rollback it caused. -metrics prints
// virtual-time latency histograms (per-monitor hold, per-thread blocking,
// rollback wasted ticks) with p50/p90/p99 in ticks.
//
// Profiling: -profile DIR attaches the virtual-time profiler and writes
// work/waste/block/sched profiles into DIR, each as a gzipped pprof
// protobuf (open with `go tool pprof -http=: DIR/waste.pb.gz`) and as
// folded stacks for flamegraph tooling. -http ADDR additionally serves the
// profiles and Prometheus text metrics live while the VM runs
// (/debug/pprof/, /metrics); add -http-wait to keep serving after the run
// until interrupted.
//
// Flight recorder: -fr attaches the always-on black-box recorder
// (internal/fr) — every event goes into a bounded binary ring, and an
// anomaly (deadlock cycle, committed race, rollback storm, latency breach;
// select with -fr-dump-on) snapshots the ring together with stats, metrics
// and the profiler digest into a self-contained .rvmfr dump (inspect with
// cmd/rvmfr). -fr-size bounds the ring; -fr-out names the dump file or
// directory. With -http, /debug/fr serves an on-demand dump of the live
// ring. -stats-json FILE writes the final core.Stats as machine-readable
// JSON.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
	"repro/internal/bytecode"
	"repro/internal/causal"
	"repro/internal/core"
	"repro/internal/fr"
	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/race"
	"repro/internal/rewrite"
	"repro/internal/sched"
	"repro/internal/simtime"
	"repro/internal/trace"
)

func main() {
	var (
		vmMode    = flag.String("vm", "revocation", "virtual machine: unmodified or revocation")
		doRewrite = flag.Bool("rewrite", true, "apply the paper's bytecode rewriting (rollback scopes)")
		tierFlag  = flag.String("tier", "exec", "execution tier: exec (switch interpreter) or opt (fused superinstructions, compiled at a method's first activation)")
		quantum   = flag.Int64("quantum", 1000, "scheduler quantum in ticks")
		seed      = flag.Int64("seed", 0, "deterministic scheduler seed")
		static    = flag.Bool("static", false, "run whole-program analysis: pre-mark non-revocable sections, elide proven-safe write barriers")
		raceFlag  = flag.Bool("race", false, "enable the dynamic data-race sanitizer (reports to stderr, exit 1 on races)")
		dlDetect  = flag.Bool("deadlock", false, "enable the runtime wait-for-graph deadlock detector (reports cycles to stderr, exit 1 on deadlocks)")
		doTrace   = flag.Bool("trace", false, "stream runtime events to stderr")
		timeline  = flag.Bool("timeline", false, "print an ASCII schedule timeline at the end")
		disasm    = flag.Bool("disasm", false, "print the (rewritten) program and exit")
		stats     = flag.Bool("stats", true, "print runtime statistics at the end")

		traceOut    = flag.String("trace-out", "", "write the trace to FILE (- for stdout)")
		traceFormat = flag.String("trace-format", "text", "trace file format: text, jsonl or perfetto")
		metrics     = flag.String("metrics", "", "print latency histograms at the end: text or json")
		metricsOut  = flag.String("metrics-out", "", "write metrics to FILE instead of stderr (- for stdout)")

		profileDir = flag.String("profile", "", "write virtual-time profiles (pprof + folded stacks) into DIR")
		httpAddr   = flag.String("http", "", "serve live /metrics and /debug/pprof/ profiles on ADDR (e.g. :8080)")
		httpWait   = flag.Bool("http-wait", false, "with -http: keep serving after the run until interrupted")
		switchCost = flag.Int64("switch-cost", 0, "context-switch cost in ticks (shows up in the sched profile)")

		critpath         = flag.Bool("critpath", false, "build the happens-before DAG from the trace stream, verify the longest-path==final-clock invariant, and print the critical-path attribution")
		critpathFolded   = flag.String("critpath-folded", "", "write the critical path as folded stacks to FILE (implies -critpath)")
		critpathPerfetto = flag.String("critpath-perfetto", "", "write a Perfetto trace with the critical path highlighted to FILE (implies -critpath)")
		whatif           = flag.Bool("whatif", false, "after the run, re-execute under suggested cost perturbations (zero-contention per monitor, revocation disabled) and report exact virtual speedups")
		whatifTop        = flag.Int("whatif-top", 2, "with -whatif: perturb the top N critical and top N raw-contended monitors")

		frEnable  = flag.Bool("fr", false, "attach the always-on flight recorder (bounded binary event ring, anomaly-triggered .rvmfr dumps)")
		frSize    = flag.Int("fr-size", fr.DefaultSize, "flight recorder ring capacity in bytes")
		frDumpOn  = flag.String("fr-dump-on", "", "flight recorder triggers: comma list of deadlock, race, storm[=N@WINDOW], latency=TICKS, exit, or none (default deadlock,race,storm)")
		frOut     = flag.String("fr-out", "", "flight recorder dump file (*.rvmfr) or directory (default: <program>-<reason>-<seq>.rvmfr in the working directory)")
		statsJSON = flag.String("stats-json", "", "write final runtime statistics as JSON to FILE (- for stdout)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: rvmrun [flags] program.rvm")
		flag.Usage()
		os.Exit(2)
	}
	switch *traceFormat {
	case "text", "jsonl", "perfetto":
	default:
		fatal(fmt.Errorf("unknown -trace-format %q (want text, jsonl or perfetto)", *traceFormat))
	}
	switch *metrics {
	case "", "text", "json":
	default:
		fatal(fmt.Errorf("unknown -metrics %q (want text or json)", *metrics))
	}
	tier, err := interp.ParseTier(*tierFlag)
	if err != nil {
		fatal(err)
	}
	if *traceFormat != "text" && *traceOut == "" {
		fatal(fmt.Errorf("-trace-format=%s requires -trace-out FILE", *traceFormat))
	}

	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	prog, err := bytecode.Assemble(string(src))
	if err != nil {
		fatal(err)
	}
	if err := bytecode.Verify(prog); err != nil {
		fatal(err)
	}

	var mode core.Mode
	switch *vmMode {
	case "unmodified":
		mode = core.Unmodified
	case "revocation":
		mode = core.Revocation
	default:
		fatal(fmt.Errorf("unknown -vm %q", *vmMode))
	}

	if *doRewrite {
		prog, err = rewrite.Rewrite(prog)
		if err != nil {
			fatal(err)
		}
	}

	// Static analysis runs over the program the VM will actually execute
	// (post-rewrite), so the facts are keyed by the pcs the interpreter
	// sees. Elision rewrites proven-safe stores to their raw forms; the
	// facts handed to the interpreter drive allocation logging (which keeps
	// fresh-target elision sound under rollback) and monitor pre-marking.
	var facts *analysis.Facts
	if *static {
		facts, err = analysis.Analyze(prog)
		if err != nil {
			fatal(fmt.Errorf("static analysis: %w", err))
		}
		rewrite.ApplyStaticElision(prog, facts)
	}

	if *disasm {
		for _, m := range prog.Methods {
			fmt.Println(bytecode.Disassemble(m))
		}
		return
	}

	// Base tracer: stderr narration and/or the timeline recorder.
	var rec trace.Recorder
	var sinks []trace.Sink
	if *doTrace {
		sinks = append(sinks, trace.Writer{W: os.Stderr})
	}
	if *timeline {
		sinks = append(sinks, &rec)
	}

	// Observability sinks ride on Config.Observer, multiplexed by the
	// runtime next to the base tracer; a plain run keeps Observer nil and
	// pays nothing.
	var (
		obsSinks  []trace.Sink
		observer  *obs.Observer
		syncObs   *obs.SyncObserver
		jsonl     *obs.JSONLWriter
		traceFile io.WriteCloser
	)
	if *traceOut != "" {
		traceFile, err = createOut(*traceOut)
		if err != nil {
			fatal(err)
		}
		switch *traceFormat {
		case "text":
			obsSinks = append(obsSinks, trace.Writer{W: traceFile})
		case "jsonl":
			jsonl = obs.NewJSONLWriter(traceFile)
			obsSinks = append(obsSinks, jsonl)
		}
	}
	switch {
	case *httpAddr != "":
		// The live endpoint scrapes from a foreign goroutine: the observer
		// must be the mutex-wrapped variant. Post-run consumers read the
		// inner observer once the VM has stopped.
		syncObs = obs.NewSyncObserver()
		obsSinks = append(obsSinks, syncObs)
	case *metrics != "" || *traceFormat == "perfetto":
		observer = obs.NewObserver()
		obsSinks = append(obsSinks, observer)
	}
	var profiler *prof.Profiler
	if *profileDir != "" || *httpAddr != "" {
		profiler = prof.New()
	}

	// Critical-path analysis records the full event stream; with a profiler
	// attached, the per-tick charge stream additionally attributes critical
	// work to bytecode sites.
	causalOn := *critpath || *whatif || *critpathFolded != "" || *critpathPerfetto != ""
	var (
		causalRec *trace.Recorder
		siteRec   *causal.SiteRecorder
	)
	if causalOn {
		causalRec = &trace.Recorder{}
		obsSinks = append(obsSinks, causalRec)
		if profiler != nil {
			siteRec = causal.NewSiteRecorder()
			profiler.SetSampler(siteRec.Add)
		}
	}

	// Flight recorder: always-on binary ring on Config.Observer. The
	// StatsJSON/ProfileJSON providers close over rtRef, set once the runtime
	// exists — trigger dumps fire on the VM goroutine, where reading Stats
	// is safe. (/debug/fr dumps taken while the VM still runs may catch the
	// counters mid-update; they are diagnostics, not accounting.)
	var (
		recorder *fr.Recorder
		syncRec  *fr.SyncRecorder
		frTrig   fr.TriggerSpec
		rtRef    *core.Runtime
	)
	if *frEnable || *frOut != "" || *frDumpOn != "" {
		frTrig, err = fr.ParseTriggers(*frDumpOn)
		if err != nil {
			fatal(err)
		}
		frCfg := fr.Config{
			Size:     *frSize,
			Triggers: frTrig,
			Program:  flag.Arg(0),
			VM:       *vmMode,
			StatsJSON: func() []byte {
				if rtRef == nil {
					return nil
				}
				b, err := json.Marshal(rtRef.Stats())
				if err != nil {
					return nil
				}
				return b
			},
		}
		if profiler != nil {
			p := profiler
			frCfg.ProfileJSON = func() []byte {
				b, err := json.Marshal(p.Snapshot().Digest(10))
				if err != nil {
					return nil
				}
				return b
			}
		}
		frCfg.OnDump = func(d *fr.Dump) {
			if err := writeFRDump(*frOut, flag.Arg(0), d); err != nil {
				fmt.Fprintln(os.Stderr, "rvmrun: flight recorder:", err)
			}
		}
		recorder = fr.New(frCfg)
		if *httpAddr != "" {
			// /debug/fr snapshots from a foreign goroutine: wrap in the
			// mutex variant, same pattern as the SyncObserver.
			syncRec = fr.NewSync(recorder)
			obsSinks = append(obsSinks, syncRec)
		} else {
			obsSinks = append(obsSinks, recorder)
		}
	}

	var srvDone func()
	if *httpAddr != "" {
		srvDone, err = serveHTTP(*httpAddr, profiler, syncObs, syncRec, *httpWait)
		if err != nil {
			fatal(err)
		}
	}

	var detector *race.Detector
	if *raceFlag {
		detector = race.New()
		if facts != nil {
			// Slots the analysis certified race-free skip the sanitizer's
			// per-access vector-clock checks; the certificates were verified
			// by VerifyCertificates inside interp.NewEnv below.
			detector.SetCertifiedRaceFree(facts.RaceFreeSlotNames())
		}
	}
	cfg := core.Config{
		Mode:              mode,
		TrackDependencies: true,
		DeadlockDetection: mode == core.Revocation,
		Tracer:            trace.Join(sinks...),
		Observer:          trace.Join(obsSinks...),
		Race:              detector,
		Profiler:          profiler,
		Sched: sched.Config{
			Quantum:    simtime.Ticks(*quantum),
			Seed:       *seed,
			SwitchCost: simtime.Ticks(*switchCost),
		},
	}
	// The wait-for-graph observer reports cycles without breaking them; in
	// revocation mode the paper's own detector still resolves the deadlock
	// afterwards, in unmodified mode the run ends in the scheduler's
	// all-blocked diagnosis. Either way the report below names every edge.
	var dlCycles [][]core.DeadlockEdge
	if *dlDetect {
		cfg.OnDeadlock = func(cycle []core.DeadlockEdge) {
			dlCycles = append(dlCycles, cycle)
		}
	}
	rt := core.New(cfg)
	rtRef = rt
	env, runErr := interp.Run(rt, prog, interp.Options{
		Rewritten: *doRewrite,
		Tier:      tier,
		Facts:     facts,
		Out:       os.Stdout,
	})
	if syncObs != nil {
		// The VM has stopped emitting; the inner observer is now safe for
		// the post-run exporters.
		observer = syncObs.Observer()
	}
	if runErr != nil && env == nil {
		finishExports(traceFile, jsonl, observer, *traceFormat)
		fatal(runErr)
	}

	var raceReports []race.Report
	if detector != nil {
		raceReports = detector.Finalize()
	}

	if *timeline {
		fmt.Fprintln(os.Stderr, "\ntimeline ('#' dispatched, 'R' rollback):")
		fmt.Fprint(os.Stderr, trace.Timeline(rec.Events(), 72))
	}
	if *stats {
		printStats(rt)
		if env != nil {
			execN, _, optN := env.TierCounts()
			fmt.Fprintf(os.Stderr, "tiers: exec-methods=%d opt-methods=%d\n", execN, optN)
		}
		if profiler != nil {
			fmt.Fprintf(os.Stderr, "profile: work=%d waste=%d block=%d sched=%d ticks\n",
				profiler.Total(prof.Work), profiler.Total(prof.Waste),
				profiler.Total(prof.Block), profiler.Total(prof.Sched))
		}
		if observer != nil {
			fmt.Fprintf(os.Stderr, "obs: spans=%d dropped=%d\n",
				len(observer.AllSpans()), observer.Dropped())
		}
	}
	if detector != nil {
		fmt.Fprint(os.Stderr, race.RenderReports(raceReports))
	}
	if len(dlCycles) > 0 {
		fmt.Fprint(os.Stderr, renderDeadlockCycles(dlCycles))
	}
	if observer != nil && *metrics != "" {
		if err := writeMetrics(observer, *metrics, *metricsOut); err != nil {
			fatal(err)
		}
	}
	if recorder != nil && frTrig.Exit {
		// Unconditional end-of-run capture; the VM has stopped emitting, so
		// the plain recorder is safe even when a SyncRecorder wrapped it.
		d, err := recorder.Snapshot(fr.ReasonExit)
		if err == nil {
			err = writeFRDump(*frOut, flag.Arg(0), d)
		}
		if err != nil {
			fatal(fmt.Errorf("flight recorder: %w", err))
		}
	}
	if *statsJSON != "" {
		if err := writeStatsJSON(rt, *statsJSON); err != nil {
			fatal(err)
		}
	}
	if err := finishExports(traceFile, jsonl, observer, *traceFormat); err != nil {
		fatal(err)
	}
	if *profileDir != "" {
		if err := writeProfiles(profiler, *profileDir); err != nil {
			fatal(err)
		}
	}
	if causalOn {
		if err := runCausal(causalRec, siteRec, rt, causalCLIOpts{
			report:      *critpath || *whatif,
			foldedPath:  *critpathFolded,
			perfetto:    *critpathPerfetto,
			whatif:      *whatif,
			whatifTop:   *whatifTop,
			src:         string(src),
			mode:        mode,
			rewriteProg: *doRewrite,
			static:      *static,
			tier:        tier,
			quantum:     *quantum,
			seed:        *seed,
			switchCost:  *switchCost,
		}); err != nil {
			fatal(err)
		}
	}
	if srvDone != nil {
		srvDone()
	}
	if runErr != nil {
		fatal(runErr)
	}
	if len(raceReports) > 0 || len(dlCycles) > 0 {
		os.Exit(1)
	}
}

// renderDeadlockCycles formats the wait-for-graph observer's reports, one
// block per distinct cycle: every member thread with its priority, the
// monitor it holds (and the bytecode site that acquired it), and the
// monitor it is blocked on. Re-detections of the same cycle (a broken and
// re-formed deadlock) collapse into one block.
func renderDeadlockCycles(cycles [][]core.DeadlockEdge) string {
	var b, key strings.Builder
	seen := make(map[string]bool)
	for _, cy := range cycles {
		key.Reset()
		for _, e := range cy {
			fmt.Fprintf(&key, "%s->%s;", e.Task, e.Holds)
		}
		if seen[key.String()] {
			continue
		}
		seen[key.String()] = true
		fmt.Fprintf(&b, "deadlock: wait-for cycle of %d threads\n", len(cy))
		for _, e := range cy {
			fmt.Fprintf(&b, "  %s (prio %d) holds %s (acquired at %s) waits for %s (at %s)\n",
				e.Task, e.Priority, e.Holds, e.HoldSite, e.WaitsFor, e.WaitSite)
		}
	}
	return b.String()
}

// serveHTTP starts the live profiling endpoint. With a recorder attached,
// /debug/fr additionally serves an on-demand flight-recorder dump of the
// live ring. The returned function is called after the run: it either
// closes the listener, or (wait) keeps serving until the process is
// interrupted.
func serveHTTP(addr string, p *prof.Profiler, so *obs.SyncObserver, sr *fr.SyncRecorder, wait bool) (func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	var extra func(io.Writer)
	if so != nil {
		extra = func(w io.Writer) {
			obs.WritePrometheus(w, so.MetricsSummary())
		}
	}
	mux := http.NewServeMux()
	if sr != nil {
		mux.HandleFunc("/debug/fr", func(w http.ResponseWriter, r *http.Request) {
			d, err := sr.Snapshot(fr.ReasonManual)
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Header().Set("Content-Disposition", `attachment; filename="dump.rvmfr"`)
			fr.WriteDump(w, d)
		})
	}
	mux.Handle("/", prof.Handler(p, extra))
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	fmt.Fprintf(os.Stderr, "rvmrun: serving live metrics and profiles on http://%s/\n", ln.Addr())
	return func() {
		if wait {
			fmt.Fprintf(os.Stderr, "rvmrun: run complete; still serving on http://%s/ — interrupt to exit\n", ln.Addr())
			ch := make(chan os.Signal, 1)
			signal.Notify(ch, os.Interrupt)
			<-ch
		}
		srv.Close()
	}, nil
}

// writeProfiles snapshots the profiler and writes every dimension into dir
// as a gzipped pprof protobuf plus folded stacks.
func writeProfiles(p *prof.Profiler, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	snap := p.Snapshot()
	for _, d := range prof.Dims() {
		pb, err := os.Create(filepath.Join(dir, d.String()+".pb.gz"))
		if err != nil {
			return err
		}
		err = snap.WritePprof(pb, d)
		if cerr := pb.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fold, err := os.Create(filepath.Join(dir, d.String()+".folded"))
		if err != nil {
			return err
		}
		err = snap.WriteFolded(fold, d)
		if cerr := fold.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// finishExports completes the trace file: flushes the JSONL stream or
// serializes the Perfetto trace from the observer, then closes the file.
func finishExports(f io.WriteCloser, jsonl *obs.JSONLWriter, o *obs.Observer, format string) error {
	if f == nil {
		return nil
	}
	var err error
	if jsonl != nil {
		err = jsonl.Close()
	}
	if format == "perfetto" && o != nil {
		if werr := obs.WritePerfetto(f, o); err == nil {
			err = werr
		}
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func writeMetrics(o *obs.Observer, format, path string) error {
	var w io.Writer = os.Stderr
	closeW := func() error { return nil }
	switch path {
	case "":
	case "-":
		w = os.Stdout
	default:
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		w = f
		closeW = f.Close
	}
	var err error
	if format == "json" {
		err = o.Metrics().WriteJSON(w)
	} else {
		if path == "" {
			fmt.Fprintln(w)
		}
		o.Metrics().Render(w)
	}
	if cerr := closeW(); err == nil {
		err = cerr
	}
	return err
}

// frDumpPath resolves where a flight-recorder dump lands. An empty outSpec
// names the dump after the program, reason and sequence number in the
// working directory; a *.rvmfr outSpec is used verbatim for the first dump
// (sequence-suffixed after that); anything else is a directory.
func frDumpPath(outSpec, program string, d *fr.Dump) string {
	base := strings.TrimSuffix(filepath.Base(program), filepath.Ext(program))
	name := fmt.Sprintf("%s-%s-%d.rvmfr", base, d.Meta.Reason, d.Meta.Seq)
	switch {
	case outSpec == "":
		return name
	case strings.HasSuffix(outSpec, ".rvmfr"):
		if d.Meta.Seq <= 1 {
			return outSpec
		}
		return fmt.Sprintf("%s.%d.rvmfr", strings.TrimSuffix(outSpec, ".rvmfr"), d.Meta.Seq)
	default:
		return filepath.Join(outSpec, name)
	}
}

// writeFRDump serializes one dump to its resolved path.
func writeFRDump(outSpec, program string, d *fr.Dump) error {
	path := frDumpPath(outSpec, program, d)
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = fr.WriteDump(f, d)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "rvmrun: flight recorder dump (%s, %d events%s) written to %s\n",
		d.Meta.Reason, len(d.Events),
		map[bool]string{true: fmt.Sprintf(", %d lost", d.Lost), false: ""}[d.Truncated],
		path)
	return nil
}

// writeStatsJSON emits the final core.Stats as JSON ("-" for stdout).
func writeStatsJSON(rt *core.Runtime, path string) error {
	data, err := json.MarshalIndent(rt.Stats(), "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// createOut opens FILE for writing; "-" selects stdout (not closed).
func createOut(path string) (io.WriteCloser, error) {
	if path == "-" {
		return nopCloser{os.Stdout}, nil
	}
	return os.Create(path)
}

type nopCloser struct{ io.Writer }

func (nopCloser) Close() error { return nil }

func printStats(rt *core.Runtime) {
	st := rt.Stats()
	fmt.Fprintf(os.Stderr, "\nvm=%v end=%d ticks\n", rt.Mode(), rt.Now())
	fmt.Fprintf(os.Stderr, "inversions=%d revocations=%d denied=%d rollbacks=%d re-executions=%d\n",
		st.Inversions, st.RevocationRequests, st.RevocationsDenied, st.Rollbacks, st.Reexecutions)
	fmt.Fprintf(os.Stderr, "logged=%d undone=%d wasted-ticks=%d deadlocks-broken=%d switches=%d\n",
		st.EntriesLogged, st.EntriesUndone, st.WastedTicks, st.DeadlocksBroken, st.ContextSwitches)
	if st.StaticPreMarks > 0 || st.RawStores > 0 || st.AllocsLogged > 0 || st.ConfinedElisions > 0 {
		fmt.Fprintf(os.Stderr, "static: premarks=%d raw-stores=%d allocs-logged=%d confined-elisions=%d\n",
			st.StaticPreMarks, st.RawStores, st.AllocsLogged, st.ConfinedElisions)
	}
	if st.RacesDetected > 0 || st.RaceReportsRetracted > 0 || st.RaceAccessesRetracted > 0 || st.RaceChecksSkipped > 0 {
		fmt.Fprintf(os.Stderr, "race: detected=%d reports-retracted=%d accesses-retracted=%d checks-skipped=%d\n",
			st.RacesDetected, st.RaceReportsRetracted, st.RaceAccessesRetracted, st.RaceChecksSkipped)
	}
	for _, th := range rt.Scheduler().Threads() {
		fmt.Fprintf(os.Stderr, "thread %-12s prio=%d start=%d end=%d cpu=%d\n",
			th.Name(), th.BasePriority(), th.StartedAt(), th.EndedAt(), th.CPU())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rvmrun:", err)
	os.Exit(1)
}
