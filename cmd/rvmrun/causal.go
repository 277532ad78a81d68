package main

import (
	"fmt"
	"os"

	"repro/internal/analysis"
	"repro/internal/bytecode"
	"repro/internal/causal"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/prof"
	"repro/internal/rewrite"
	"repro/internal/sched"
	"repro/internal/simtime"
	"repro/internal/trace"
)

// Critical-path analysis and the what-if engine, behind -critpath and
// -whatif. The DAG is built from the run's own trace stream; what-if
// experiments re-execute the program from source under core.Perturb cost
// models, which the deterministic VM makes exact rather than sampled.

// causalCLIOpts carries the flag state runCausal needs, including
// everything required to re-execute the program for what-if experiments.
type causalCLIOpts struct {
	report     bool
	foldedPath string
	perfetto   string
	whatif     bool
	whatifTop  int

	src         string
	mode        core.Mode
	rewriteProg bool
	static      bool
	tier        interp.Tier
	quantum     int64
	seed        int64
	switchCost  int64
}

// runCausal builds the DAG, enforces the longest-path==clock invariant
// (exit 1 on violation — a broken DAG means a broken stream, not a
// shifted attribution), renders the report and exports, and drives the
// what-if batch.
func runCausal(rec *trace.Recorder, sites *causal.SiteRecorder, rt *core.Runtime, o causalCLIOpts) error {
	g, err := causal.Build(rec.Events(), causal.Options{})
	if err != nil {
		return err
	}
	if err := g.CheckInvariant(); err != nil {
		return fmt.Errorf("critical-path invariant FAILED: %w", err)
	}
	if g.FinalClock != rt.Now() {
		return fmt.Errorf("critical-path invariant FAILED: DAG clock %d != runtime clock %d", g.FinalClock, rt.Now())
	}
	a, err := g.CriticalPath()
	if err != nil {
		return err
	}
	if sites != nil {
		sites.AttachSites(a)
	}
	if o.report {
		causal.RenderReport(os.Stdout, g, a, 5)
	}
	if o.foldedPath != "" {
		if err := writeTo(o.foldedPath, func(w *os.File) error { return causal.WriteFolded(w, a) }); err != nil {
			return err
		}
	}
	if o.perfetto != "" {
		if err := writeTo(o.perfetto, func(w *os.File) error { return causal.WritePerfetto(w, g, a) }); err != nil {
			return err
		}
	}
	if !o.whatif {
		return nil
	}

	run := whatifRunner(o)
	baseline, err := run(nil)
	if err != nil {
		return fmt.Errorf("whatif baseline re-execution: %w", err)
	}
	if baseline.Clock != rt.Now() {
		return fmt.Errorf("whatif baseline clock %d != original run %d — re-execution is not reproducing the run", baseline.Clock, rt.Now())
	}
	exps := causal.SuggestExperiments(a, o.whatifTop)
	w, err := causal.RunWhatIf(baseline, run, exps)
	if err != nil {
		return err
	}
	fmt.Fprintln(os.Stdout)
	causal.RenderWhatIf(os.Stdout, w)
	if !w.ControlOK {
		return fmt.Errorf("whatif control replay diverged — determinism harness broken")
	}
	return nil
}

// whatifRunner builds the RunFn: a full re-execution from source through
// the same pipeline as the main run (assemble, verify, rewrite, static
// analysis), under the given perturbation, with print output captured
// into the fingerprint instead of stdout.
func whatifRunner(o causalCLIOpts) causal.RunFn {
	return func(p *core.Perturb) (causal.Outcome, error) {
		prog, err := bytecode.Assemble(o.src)
		if err != nil {
			return causal.Outcome{}, err
		}
		if err := bytecode.Verify(prog); err != nil {
			return causal.Outcome{}, err
		}
		if o.rewriteProg {
			if prog, err = rewrite.Rewrite(prog); err != nil {
				return causal.Outcome{}, err
			}
		}
		var facts *analysis.Facts
		if o.static {
			if facts, err = analysis.Analyze(prog); err != nil {
				return causal.Outcome{}, err
			}
			rewrite.ApplyStaticElision(prog, facts)
		}
		var profiler *prof.Profiler
		if p != nil && len(p.Scale) > 0 {
			// Site scaling resolves (method, pc) through the profiler's
			// call-stack mirror; attach a throwaway one.
			profiler = prof.New()
		}
		rt := core.New(core.Config{
			Mode:              o.mode,
			TrackDependencies: true,
			DeadlockDetection: o.mode == core.Revocation,
			Perturb:           p,
			Profiler:          profiler,
			Sched: sched.Config{
				Quantum:    simtime.Ticks(o.quantum),
				Seed:       o.seed,
				SwitchCost: simtime.Ticks(o.switchCost),
			},
		})
		env, err := interp.Run(rt, prog, interp.Options{
			Rewritten: o.rewriteProg,
			Tier:      o.tier,
			Facts:     facts,
		})
		if err != nil {
			return causal.Outcome{}, err
		}
		fp := fmt.Sprintf("stats=%+v printed=%v", rt.Stats(), env.Printed)
		return causal.Outcome{Clock: rt.Now(), Fingerprint: fp}, nil
	}
}

// writeTo creates path and hands it to write, closing on the way out.
func writeTo(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
