package main

import (
	"encoding/json"
	"fmt"

	"repro/internal/analysis"
	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/fr"
	"repro/internal/interp"
	"repro/internal/rewrite"
	"repro/internal/sched"
	"repro/internal/trace"
)

// pipelineOpts selects how runProgram executes a program.
type pipelineOpts struct {
	tier     interp.Tier
	recorder bool // attach a flight recorder, as rvmrun -fr does
	// afterRun, when set, sees the environment after the run and before
	// the known-answer check (the self-tests use it to corrupt the heap).
	afterRun func(env *interp.Env)
}

// runProgram runs one program through the full rvmrun pipeline with the
// configuration of `rvmrun -static -tier <tier>`: Assemble → Verify →
// Rewrite → Analyze → ApplyStaticElision → NewEnv (certificate gate) →
// SpawnDeclaredThreads → Run on the revocation VM. It then checks the
// final state against the generator's known answers.
func runProgram(p *program, o pipelineOpts, sp *spanRec, root int) (outcome, error) {
	id := sp.begin("bytecode.assemble", root)
	prog, err := bytecode.Assemble(p.Src)
	sp.end(id)
	if err != nil {
		return outcome{}, fmt.Errorf("%s: %w", p.Name, err)
	}
	id = sp.begin("bytecode.verify", root)
	err = bytecode.Verify(prog)
	sp.end(id)
	if err != nil {
		return outcome{}, fmt.Errorf("%s: %w", p.Name, err)
	}
	id = sp.begin("rewrite.rewrite", root)
	prog, err = rewrite.Rewrite(prog)
	sp.end(id)
	if err != nil {
		return outcome{}, fmt.Errorf("%s: %w", p.Name, err)
	}
	id = sp.begin("analysis.analyze", root)
	facts, err := analysis.Analyze(prog)
	sp.end(id)
	if err != nil {
		return outcome{}, fmt.Errorf("%s: static analysis: %w", p.Name, err)
	}
	id = sp.begin("rewrite.elide", root)
	rewrite.ApplyStaticElision(prog, facts)
	sp.end(id)

	id = sp.begin("core.setup", root)
	cfg := core.Config{
		Mode:              core.Revocation,
		TrackDependencies: true,
		DeadlockDetection: true,
		Tracer:            trace.Discard,
		Sched:             sched.Config{Quantum: 1000},
	}
	var rec *fr.Recorder
	var rt *core.Runtime
	if o.recorder {
		rec = fr.New(fr.Config{
			Triggers: fr.DefaultTriggers(), // rvmrun's default -fr-dump-on
			Program:  p.Name,
			VM:       "revocation",
			StatsJSON: func() []byte {
				b, _ := json.Marshal(rt.Stats()) // a dump without stats is still a dump
				return b
			},
			OnDump: func(*fr.Dump) {},
		})
		cfg.Observer = rec
	}
	rt = core.New(cfg)
	sp.end(id)

	id = sp.begin("interp.newenv", root)
	env, err := interp.NewEnv(rt, prog, interp.Options{Rewritten: true, Tier: o.tier, Facts: facts})
	sp.end(id)
	if err != nil {
		return outcome{}, fmt.Errorf("%s: %w", p.Name, err)
	}
	id = sp.begin("core.setup", root)
	err = env.SpawnDeclaredThreads()
	sp.end(id)
	if err != nil {
		return outcome{}, fmt.Errorf("%s: %w", p.Name, err)
	}
	id = sp.begin("core.run", root)
	err = rt.Run()
	sp.end(id)
	if err != nil {
		return outcome{}, fmt.Errorf("%s: %w", p.Name, err)
	}

	if o.afterRun != nil {
		o.afterRun(env)
	}
	_, _, opt := env.TierCounts()
	out := outcome{
		Clock:        rt.Now(),
		Threads:      threadSpans(rt),
		Stats:        rt.Stats(),
		Heap:         heapFingerprint(rt.Heap(), env.Printed),
		Acquisitions: acquisitions(rt),
		OptMethods:   opt,
	}
	if rec != nil {
		out.FREvents = int64(rec.Len()) + int64(rec.Lost())
		out.FRLost = int64(rec.Lost())
	}
	if err := p.check(env); err != nil {
		return out, fmt.Errorf("%s: %w", p.Name, err)
	}
	return out, nil
}
