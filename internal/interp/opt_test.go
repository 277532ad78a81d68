package interp

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/prof"
	"repro/internal/rewrite"
	"repro/internal/sched"
)

// allTiers is the complete tier set the equivalence properties quantify
// over.
var allTiers = []Tier{TierExec, TierThreaded, TierOpt}

// tierFinalState is everything externally observable at the end of a run:
// the final virtual clock, the complete runtime statistics, and a
// rendering of the final heap (statics, objects, arrays) plus the print
// stream. Two runs are equivalent iff their tierFinalStates are equal.
type tierFinalState struct {
	clock int64
	stats core.Stats
	heap  string
}

// runExampleTier executes one example file on one tier through the full
// rvmrun pipeline — assemble, verify, rewrite, static analysis, elision —
// and captures the final state. OptCallThreshold 1 forces every method
// onto fused code from its first activation, so TierOpt runs exercise the
// superinstruction compiler throughout, not just on re-invoked methods.
func runExampleTier(t *testing.T, src string, tier Tier) tierFinalState {
	t.Helper()
	text, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := bytecode.Assemble(string(text))
	if err != nil {
		t.Fatal(err)
	}
	if err := bytecode.Verify(prog); err != nil {
		t.Fatal(err)
	}
	prog, err = rewrite.Rewrite(prog)
	if err != nil {
		t.Fatal(err)
	}
	facts, err := analysis.Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	rewrite.ApplyStaticElision(prog, facts)

	rt := core.New(core.Config{
		Mode:              core.Revocation,
		TrackDependencies: true,
		DeadlockDetection: true,
		Sched:             sched.Config{Quantum: 1000, SwitchCost: 3},
	})
	env, err := Run(rt, prog, Options{
		Rewritten:        true,
		Tier:             tier,
		OptCallThreshold: 1,
		Facts:            facts,
	})
	if err != nil {
		t.Fatalf("%v tier: %v", tier, err)
	}
	return finalState(rt, env)
}

// finalState fingerprints everything externally observable at the end of
// a run. Shared by the tier-equivalence and the zero-perturbation
// identity properties.
func finalState(rt *core.Runtime, env *Env) tierFinalState {
	var b strings.Builder
	h := rt.Heap()
	for i := 0; i < h.NumStatics(); i++ {
		fmt.Fprintf(&b, "static %s=%d\n", h.StaticName(i), h.GetStatic(i))
	}
	for _, o := range h.Objects() {
		fmt.Fprintf(&b, "object %s#%d", o.Class(), o.ID())
		for i := 0; i < o.NumFields(); i++ {
			fmt.Fprintf(&b, " %s=%d", o.FieldName(i), o.Get(i))
		}
		b.WriteByte('\n')
	}
	for _, a := range h.Arrays() {
		fmt.Fprintf(&b, "array #%d", a.ID())
		for i := 0; i < a.Len(); i++ {
			fmt.Fprintf(&b, " %d", a.Get(i))
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "printed %v\n", env.Printed)

	return tierFinalState{clock: int64(rt.Now()), stats: rt.Stats(), heap: b.String()}
}

// TestTierEquivalenceAllExamples is the three-tier grand invariant: every
// example program produces an identical final heap (statics, object
// fields, array elements, print stream), identical complete Stats
// (rollbacks, log entries, wasted ticks, raw stores, lock-word counters,
// ...) and an identical final virtual clock on the switch interpreter,
// the threaded tier, and the fused superinstruction tier. Fusion,
// compile-time fact specialization and dead-SAVESTACK elision must be
// invisible to everything but wall-clock time.
func TestTierEquivalenceAllExamples(t *testing.T) {
	// exampleSources includes the deadlocking corpus: those runs form a
	// real wait-for cycle, the VM's detector revokes a certified section,
	// and the rolled-back heaps must still fingerprint identically across
	// tiers.
	for _, src := range exampleSources(t) {
		src := src
		t.Run(filepath.Base(src), func(t *testing.T) {
			base := runExampleTier(t, src, TierExec)
			for _, tier := range allTiers[1:] {
				got := runExampleTier(t, src, tier)
				if got.clock != base.clock {
					t.Errorf("%v tier: final clock %d, exec %d", tier, got.clock, base.clock)
				}
				if got.stats != base.stats {
					t.Errorf("%v tier: stats diverge:\n exec: %+v\n %v:  %+v", tier, base.stats, tier, got.stats)
				}
				if got.heap != base.heap {
					t.Errorf("%v tier: final heap diverges:\n exec:\n%s %v:\n%s", tier, base.heap, tier, got.heap)
				}
			}
		})
	}
}

// TestOptMatchesInterpreter reuses the threaded tier's mixed workload on
// fused code (threshold 1, so both main and the callee run fused).
func TestOptMatchesInterpreter(t *testing.T) {
	src := `
static g = 3
class Box {
    v = 2
}
method main locals 3 returns {
    newobj Box
    store 0
    const 0
    store 1
    const 20
    store 2
  loop:
    load 2
    ifz done
    load 1
    load 2
    mul
    getstatic g
    add
    store 1
    load 0
    load 1
    putfield Box.v
    load 2
    const 1
    sub
    store 2
    goto loop
  done:
    load 0
    getfield Box.v
    load 1
    add
    invoke half
    ireturn
}
method half args 1 locals 1 returns {
    load 0
    const 2
    div
    ireturn
}
`
	a := callMainWith(t, src, Options{})
	b := callMainWith(t, src, Options{Tier: TierOpt, OptCallThreshold: 1})
	if a != b {
		t.Fatalf("tiers disagree: interp=%d opt=%d", a, b)
	}
}

// TestOptRevocation: fused code keeps full rollback-scope support — the
// SAVESTACK of a revocable section is NOT elided, and CHECKTARGET /
// RESTORESTACK dispatch still works from inside fused frames.
func TestOptRevocation(t *testing.T) {
	prog, err := rewrite.Rewrite(bytecode.MustAssemble(revocationProgram))
	if err != nil {
		t.Fatal(err)
	}
	rt := core.New(core.Config{
		Mode:              core.Revocation,
		TrackDependencies: true,
		Sched:             sched.Config{Quantum: 200},
	})
	env, err := Run(rt, prog, Options{Rewritten: true, Tier: TierOpt, OptCallThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Stats().Rollbacks == 0 {
		t.Fatal("no rollback on the fused tier")
	}
	idx, _ := env.Prog.StaticIndex("highSawDirty")
	if got := env.RT.Heap().GetStatic(idx); got != 0 {
		t.Fatalf("high saw speculative data = %d", got)
	}
}

// TestOptExceptions: ArithmeticException raised from inside a fused run
// dispatches to the handler with the faulting pc.
func TestOptExceptions(t *testing.T) {
	src := `
method main locals 0 returns {
  try:
    const 1
    const 0
    div
    ireturn
  after:
    const 0
    ireturn
  catcher:
    pop
    const 5
    ireturn
}
handler main from try to after target catcher catch ArithmeticException
`
	if got := callMainWith(t, src, Options{Tier: TierOpt, OptCallThreshold: 1}); got != 5 {
		t.Fatalf("ret = %d", got)
	}
}

// TestParseTier covers the flag surface, including the rejection message.
func TestParseTier(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Tier
	}{{"exec", TierExec}, {"threaded", TierThreaded}, {"opt", TierOpt}} {
		got, err := ParseTier(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseTier(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Errorf("Tier(%v).String() = %q, want %q", got, got.String(), tc.in)
		}
	}
	if _, err := ParseTier("jit"); err == nil {
		t.Error("ParseTier(jit) succeeded")
	}
}

// TestTierPromotion pins the deterministic invocation-count promotion: a
// method tiers up at its OptCallThreshold'th activation, and TierCounts
// reports the per-tier method split.
func TestTierPromotion(t *testing.T) {
	src := `
method main locals 1 returns {
    invoke work
    pop
    invoke work
    pop
    invoke work
    ireturn
}
method work locals 0 returns {
    const 7
    ireturn
}
`
	prog := bytecode.MustAssemble(src)
	rt := core.New(core.Config{Mode: core.Unmodified, Sched: sched.Config{Quantum: 1000}})
	env, err := NewEnv(rt, prog, Options{Tier: TierOpt, OptCallThreshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := prog.Method("main")
	var ret heap.Word
	rt.Spawn("main", sched.NormPriority, func(tk *core.Task) {
		ret, err = env.Call(tk, m, nil)
	})
	if rerr := rt.Run(); rerr != nil {
		t.Fatal(rerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if ret != 7 {
		t.Fatalf("ret = %d", ret)
	}
	work, _ := prog.Method("work")
	if env.rec(work).fused == nil {
		t.Error("work (3 activations, threshold 2) not promoted to fused code")
	}
	if env.rec(m).fused != nil {
		t.Error("main (1 activation, threshold 2) promoted to fused code")
	}
	exec, threaded, opt := env.TierCounts()
	if exec != 0 || threaded != 1 || opt != 1 {
		t.Errorf("TierCounts = (%d, %d, %d), want (0, 1, 1)", exec, threaded, opt)
	}
}

// TestTierProfilePromotion pins the profile feed: with a profiler
// attached, a method whose attributed work ticks reach OptHotTicks
// recompiles even when its activation count stays below OptCallThreshold.
func TestTierProfilePromotion(t *testing.T) {
	src := `
method main locals 1 returns {
    invoke work
    pop
    invoke work
    ireturn
}
method work locals 1 returns {
    const 40
    store 0
  loop:
    load 0
    ifz done
    load 0
    const 1
    sub
    store 0
    goto loop
  done:
    const 1
    ireturn
}
`
	prog := bytecode.MustAssemble(src)
	p := prof.New()
	rt := core.New(core.Config{Mode: core.Unmodified, Profiler: p, Sched: sched.Config{Quantum: 1000}})
	env, err := NewEnv(rt, prog, Options{
		Tier:             TierOpt,
		OptCallThreshold: 100, // activation count alone will never promote
		OptHotTicks:      50,  // ...but the first activation's ~200 work ticks will
	})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := prog.Method("main")
	rt.Spawn("main", sched.NormPriority, func(tk *core.Task) {
		_, err = env.Call(tk, m, nil)
	})
	if rerr := rt.Run(); rerr != nil {
		t.Fatal(rerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	work, _ := prog.Method("work")
	if env.rec(work).fused == nil {
		t.Fatalf("work not promoted by profile feed (FuncWork=%d)", p.FuncWork("work"))
	}
	if tier := p.Snapshot().FuncTier["work"]; tier != "opt" {
		t.Errorf("profiler tier tag for work = %q, want opt", tier)
	}
}

// TestOptSavestackElision pins the static specialization: the SAVESTACK of
// a statically non-revocable section is compiled to a charge-only no-op
// (elidedSavestacks flags it) while revocable sections keep theirs.
func TestOptSavestackElision(t *testing.T) {
	// Both sections are entered with a live operand stack, which is what
	// makes the rewriter spill: a depth-1 SAVESTACK before each.
	src := `
class Lock {
    unused
}
static s = 0
method main locals 1 returns {
    newobj Lock
    store 0
    const 10
    sync 0 {
        const 42
        native print 1
        pop
    }
    const 100
    sync 0 {
        getstatic s
        const 1
        add
        putstatic s
    }
    add
    ireturn
}
`
	prog, err := rewrite.Rewrite(bytecode.MustAssemble(src))
	if err != nil {
		t.Fatal(err)
	}
	facts, err := analysis.Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	rewrite.ApplyStaticElision(prog, facts)
	rt := core.New(core.Config{Mode: core.Revocation, Sched: sched.Config{Quantum: 1000}})
	env, err := NewEnv(rt, prog, Options{Rewritten: true, Tier: TierOpt, OptCallThreshold: 1, Facts: facts})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := prog.Method("main")

	var savestacks, dead int
	deadSet := env.elidedSavestacks(m)
	for pc, instr := range m.Code {
		if instr.Op == bytecode.SAVESTACK {
			savestacks++
			if deadSet[pc] {
				dead++
			}
		}
	}
	if savestacks != 2 {
		t.Fatalf("rewriter inserted %d SAVESTACKs, want 2", savestacks)
	}
	if dead != 1 {
		t.Fatalf("elided %d of %d SAVESTACKs, want exactly the native-calling section's", dead, savestacks)
	}
}
