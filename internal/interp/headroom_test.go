package interp

import (
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/prof"
	"repro/internal/sched"
	"repro/internal/simtime"
)

// This file pins the per-instruction charge: every tier charges each
// instruction through Task.Step, unscaled, and the fused tier's one-charge
// pure runs are tick-for-tick identical to charging constituent by
// constituent.

// runTierConfig runs one program through the rvmrun -static pipeline on
// one tier under the given scheduler quantum, per-instruction cost and
// cost perturbation (with a profiler attached when p scales sites). A run that fails — some
// examples assume a thread finishes within one default quantum and fault
// under tiny ones — returns its final state with the error text, which
// must then be the same on every tier.
func runTierConfig(t *testing.T, src string, tier Tier, quantum, cost simtime.Ticks, p *core.Perturb) (tierFinalState, string) {
	t.Helper()
	prog, facts := prepareExample(t, src)
	cfg := core.Config{
		Mode:              core.Revocation,
		TrackDependencies: true,
		DeadlockDetection: true,
		Perturb:           p,
		Sched:             sched.Config{Quantum: quantum, SwitchCost: 3},
	}
	if p != nil && len(p.Scale) > 0 {
		cfg.Profiler = prof.New()
	}
	rt := core.New(cfg)
	env, err := Run(rt, prog, Options{Rewritten: true, Tier: tier, Facts: facts, CostPerInstr: cost})
	if env == nil {
		t.Fatalf("%s %v tier: %v", src, tier, err)
	}
	if err != nil {
		return finalState(rt, env), err.Error()
	}
	return finalState(rt, env), ""
}

// workSites scales every `work` site of src's pipeline-prepared program by r.
func workSites(t *testing.T, src string, r core.Ratio) *core.Perturb {
	t.Helper()
	prog, _ := prepareExample(t, src)
	p := &core.Perturb{Scale: map[core.Site]core.Ratio{}}
	for _, m := range prog.Methods {
		for pc, instr := range m.Code {
			if instr.Op == bytecode.WORK {
				p.Scale[core.Site{Method: m.Name, PC: pc}] = r
			}
		}
	}
	return p
}

// sameFinalState reports every difference between got and exec's base.
func sameFinalState(t *testing.T, what string, base, got tierFinalState) {
	t.Helper()
	if got.clock != base.clock {
		t.Errorf("%s: final clock %d, exec %d", what, got.clock, base.clock)
	}
	if got.stats != base.stats {
		t.Errorf("%s: stats diverge:\n exec: %+v\n got:  %+v", what, base.stats, got.stats)
	}
	if got.heap != base.heap {
		t.Errorf("%s: final heap diverges:\n exec:\n%s got:\n%s", what, base.heap, got.heap)
	}
}

// TestWhatIfScaleTierIdentical: under Perturb.Scale only the `work`
// operator's charge is scaled, never the per-instruction cost, so every
// tier ends a scaled run in the same state — at any per-instruction cost.
func TestWhatIfScaleTierIdentical(t *testing.T) {
	for _, src := range oracleSources(t) {
		p := workSites(t, src, core.Ratio{Num: 1, Den: 2})
		for _, cost := range []simtime.Ticks{1, 3} {
			base, err := runTierConfig(t, src, TierExec, 1000, cost, p)
			if err != "" {
				t.Fatalf("%s: %s", src, err)
			}
			for _, tier := range allTiers[1:] {
				got, err := runTierConfig(t, src, tier, 1000, cost, p)
				if err != "" {
					t.Fatalf("%s %v tier: %s", src, tier, err)
				}
				sameFinalState(t, fmt.Sprintf("%s cost=%d %v tier", filepath.Base(src), cost, tier), base, got)
			}
		}
	}
}

// TestWhatIfScaleKnownAnswer: three `work 5` charges at one site scaled
// by 2/3 cost floor(15·2/3) = 10 ticks in total on every tier — the
// per-site remainder carries across charges — and nothing else moves.
// Scaling an elided store's site moves nothing: its write charge, like
// the barriered store's, is never scaled.
func TestWhatIfScaleKnownAnswer(t *testing.T) {
	const src = `
static s = 0
thread t priority 5 run main
method main locals 1 {
    const 3
    store 0
  loop:
    load 0
    ifz done
    const 5
    work
    load 0
    putstatic.raw s
    load 0
    const 1
    sub
    store 0
    goto loop
  done:
    return
}
`
	prog := bytecode.MustAssemble(src)
	m, _ := prog.Method("main")
	workPC, rawPC := -1, -1
	for pc, instr := range m.Code {
		switch instr.Op {
		case bytecode.WORK:
			workPC = pc
		case bytecode.PUTSTATICRAW:
			rawPC = pc
		}
	}
	run := func(tier Tier, p *core.Perturb) simtime.Ticks {
		cfg := core.Config{Mode: core.Revocation, Perturb: p, Profiler: prof.New(), Sched: sched.Config{Quantum: 1000}}
		rt := core.New(cfg)
		if _, err := Run(rt, prog.Clone(), Options{Tier: tier}); err != nil {
			t.Fatal(err)
		}
		return rt.Now()
	}
	work := core.Site{Method: "main", PC: workPC}
	raw := core.Site{Method: "main", PC: rawPC}
	for _, c := range []struct {
		name  string
		scale map[core.Site]core.Ratio
		saved simtime.Ticks
	}{
		{"work 2/3", map[core.Site]core.Ratio{work: {Num: 2, Den: 3}}, 15 - 10},
		{"raw store 1/3", map[core.Site]core.Ratio{raw: {Num: 1, Den: 3}}, 0},
		{"both", map[core.Site]core.Ratio{work: {Num: 2, Den: 3}, raw: {Num: 1, Den: 3}}, 15 - 10},
	} {
		for _, tier := range allTiers {
			plain, got := run(tier, &core.Perturb{}), run(tier, &core.Perturb{Scale: c.scale})
			if saved := plain - got; saved != c.saved {
				t.Errorf("%s, %v tier: scaling saved %d ticks (%d → %d), want %d", c.name, tier, saved, plain, got, c.saved)
			}
		}
	}
}

// TestNegativeCostPerInstrRejected: a negative per-instruction cost is a
// configuration error, not a charge some tier would skip and another
// would panic on.
func TestNegativeCostPerInstrRejected(t *testing.T) {
	rt := core.New(core.Config{})
	prog := bytecode.MustAssemble("method main locals 0 {\n    return\n}\n")
	if _, err := NewEnv(rt, prog, Options{CostPerInstr: -1}); err == nil {
		t.Fatal("NewEnv accepted CostPerInstr -1")
	}
}

// TestSmallQuantumTierSweep puts timeslice boundaries inside fused runs:
// with quanta this small, a pure run sometimes fits the headroom and
// charges once, and sometimes crosses a boundary and charges constituent
// by constituent. Every program on every tier must end exactly as exec.
func TestSmallQuantumTierSweep(t *testing.T) {
	for _, src := range oracleSources(t) {
		for _, q := range []simtime.Ticks{1, 2, 3, 5, 7, 13} {
			base, baseErr := runTierConfig(t, src, TierExec, q, 1, nil)
			for _, tier := range allTiers[1:] {
				got, err := runTierConfig(t, src, tier, q, 1, nil)
				what := fmt.Sprintf("%s q=%d %v tier", filepath.Base(src), q, tier)
				if err != baseErr {
					t.Errorf("%s: error %q, exec %q", what, err, baseErr)
				}
				sameFinalState(t, what, base, got)
			}
		}
	}
}

// fusedDivSrc positions the clock with `work`, reads the headroom at the
// start of a seven-instruction pure fused run (pop … div, pop) through the
// probe native, and divides by zero at its sixth constituent. The handler
// covers only the div's pc, so a stale fault pc goes uncaught; the
// catcher records the clock at handler entry.
const fusedDivSrc = `
static pre = 0
thread t priority 5 run main
method main locals 0 {
    getstatic pre
    work
    native probe 0
    pop
    const 1
    const 2
    add
    const 0
  d:
    div
  after:
    pop
    return
  catcher:
    pop
    native clock 0
    pop
    return
}
handler main from d to after target catcher catch ArithmeticException
`

// TestFusedDivFaultHeadroom: a DIV-by-zero inside a fused run charges
// exactly the constituents up to and including the div and raises at the
// div's pc, both when the run fits the headroom (one charge) and when it
// crosses a timeslice boundary (per-constituent charges) — the tick
// charge and the handler entry equal exec's.
func TestFusedDivFaultHeadroom(t *testing.T) {
	const quantum, runLen = 10, 7
	prog := bytecode.MustAssemble(fusedDivSrc)
	type outcome struct {
		headroom, atHandler, end simtime.Ticks
		stats                    core.Stats
	}
	run := func(tier Tier, pre int64) outcome {
		var o outcome
		rt := core.New(core.Config{Mode: core.Revocation, Sched: sched.Config{Quantum: quantum, SwitchCost: 3}})
		env, err := NewEnv(rt, prog.Clone(), Options{Tier: tier})
		if err != nil {
			t.Fatal(err)
		}
		env.RegisterNative("probe", func(_ *Env, tk *core.Task, _ []heap.Word) heap.Word {
			o.headroom = tk.Headroom()
			return 0
		})
		env.RegisterNative("clock", func(*Env, *core.Task, []heap.Word) heap.Word {
			o.atHandler = rt.Now()
			return 0
		})
		idx, _ := env.Prog.StaticIndex("pre")
		rt.Heap().SetStatic(idx, heap.Word(pre))
		if err := env.SpawnDeclaredThreads(); err != nil {
			t.Fatal(err)
		}
		if err := rt.Run(); err != nil {
			t.Fatalf("%v tier, pre=%d: %v", tier, pre, err)
		}
		o.end, o.stats = rt.Now(), rt.Stats()
		return o
	}
	var fits, crosses bool
	for pre := int64(0); pre < 2*quantum; pre++ {
		base := run(TierExec, pre)
		if base.atHandler == 0 {
			t.Fatalf("pre=%d: exec never reached the handler", pre)
		}
		opt := run(TierOpt, pre)
		if opt.headroom > runLen {
			fits = true
		} else {
			crosses = true
		}
		if opt.atHandler != base.atHandler || opt.end != base.end || opt.stats != base.stats {
			t.Errorf("pre=%d opt tier (headroom %d): handler at %d, end %d, stats %+v; exec: handler at %d, end %d, stats %+v",
				pre, opt.headroom, opt.atHandler, opt.end, opt.stats, base.atHandler, base.end, base.stats)
		}
	}
	if !fits || !crosses {
		t.Fatalf("sweep did not cover both cases: fits=%v crosses=%v", fits, crosses)
	}
}
