package interp

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/sched"
)

// hazardAnswers are the known answers of the frame-reuse hazard programs
// (testdata/hazards): the printed stream, and the static values checked
// by name.
var hazardAnswers = map[string]struct {
	printed string
	statics map[string]heap.Word
	// rollbacks is the number of revoked sections the run must show.
	rollbacks int64
}{
	"rollback_calls.rvm": {printed: "[]", statics: map[string]heap.Word{"out": 132, "res": 129, "highSaw": 0}, rollbacks: 1},
	"unwind_calls.rvm":   {printed: "[15]"},
	"recursion.rvm":      {printed: "[820 6 3240]"},
	"locals.rvm":         {printed: "[0 0 0]"},
}

// TestFrameReuseHazards runs each hazard program on both tiers and checks
// the final state of the fused tier against the exec tier and the
// program's known answer. Together with TestOracleGolden (which
// covers the same programs) this pins the shapes that reused frames must
// survive: a rollback discarding callee activations, a user exception
// unwinding through frames that hold monitors, deep recursion that grows
// and shrinks the frame stack, and uninitialised locals.
//
// Each program runs through the rvmrun -static pipeline and, unrewritten,
// through a bare NewEnv: without the rewriter's compensation handlers a
// user exception abandons a frame with its sections still listed, which
// the next activation in that frame must not inherit.
func TestFrameReuseHazards(t *testing.T) {
	for _, src := range hazardSources(t) {
		name := filepath.Base(src)
		want, ok := hazardAnswers[name]
		if !ok {
			t.Fatalf("%s has no known answer", name)
		}
		t.Run(name, func(t *testing.T) {
			rt, env := runOracle(t, src, TierExec)
			base := finalState(rt, env)
			if got := fmt.Sprint(env.Printed); got != want.printed {
				t.Errorf("exec printed %s, want %s", got, want.printed)
			}
			for s, v := range want.statics {
				idx, ok := env.Prog.StaticIndex(s)
				if !ok {
					t.Fatalf("no static %q", s)
				}
				if got := rt.Heap().GetStatic(idx); got != v {
					t.Errorf("exec: static %s = %d, want %d", s, got, v)
				}
			}
			if got := rt.Stats().Rollbacks; got != want.rollbacks {
				t.Errorf("exec: %d rollbacks, want %d", got, want.rollbacks)
			}
			plainBase := runPlain(t, src, TierExec)
			if !strings.HasSuffix(plainBase.heap, "printed "+want.printed+"\n") {
				t.Errorf("unrewritten exec run printed the wrong values:\n%s", plainBase.heap)
			}
			rt, env = runOracle(t, src, TierOpt)
			if got := finalState(rt, env); got != base {
				t.Errorf("opt tier diverges from exec:\n exec: %+v\n got:  %+v", base, got)
			}
			if got := runPlain(t, src, TierOpt); got != plainBase {
				t.Errorf("unrewritten, opt tier diverges from exec:\n exec: %+v\n got:  %+v", plainBase, got)
			}
		})
	}
}

// runPlain runs one program unrewritten and without static facts.
func runPlain(t *testing.T, src string, tier Tier) tierFinalState {
	t.Helper()
	text, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	rt := core.New(core.Config{Mode: core.Revocation, Sched: sched.Config{Quantum: 1000}})
	env, err := Run(rt, bytecode.MustAssemble(string(text)), Options{Tier: tier})
	if err != nil {
		t.Fatalf("%s %v tier: %v", src, tier, err)
	}
	return finalState(rt, env)
}

// reentrySrc calls a native that re-enters the interpreter through
// Env.Call while the caller's frames are live: the nested activation
// chain must neither see nor disturb the outer frames' locals and stacks.
// main = outer(4) + outer(2) = (inner(5)+100) + (inner(3)+100) = 234.
const reentrySrc = `
method main locals 1 returns {
    const 4
    invoke outer
    store 0
    const 2
    invoke outer
    load 0
    add
    ireturn
}
method outer args 1 locals 2 returns {
    const 1000
    load 0
    const 1
    add
    native reenter 1
    load 1
    add
    const 100
    add
    swap
    pop
    ireturn
}
method inner args 1 locals 2 returns {
    load 1
    load 0
    invoke sq
    add
    dup
    store 1
    ireturn
}
method sq args 1 locals 1 returns {
    load 0
    load 0
    mul
    ireturn
}
`

// TestNativeReentryFrames re-enters the interpreter from a native on every
// tier: the nested Env.Call runs its own activation chain on the same
// task, and both chains keep their frames apart. Case <tier>/0 makes the
// checked call on a fresh Env, so on TierOpt the nested call is the first
// activation of inner and sq and compiles them from inside the native;
// case <tier>/1 makes one call to main first, so the checked call
// re-enters code that is already compiled and frames that were released.
func TestNativeReentryFrames(t *testing.T) {
	for _, tier := range allTiers {
		for warm := 0; warm <= 1; warm++ {
			t.Run(fmt.Sprintf("%v/%d", tier, warm), func(t *testing.T) {
				prog := bytecode.MustAssemble(reentrySrc)
				rt := core.New(core.Config{Mode: core.Revocation, Sched: sched.Config{Quantum: 1000}})
				env, err := NewEnv(rt, prog, Options{Tier: tier})
				if err != nil {
					t.Fatal(err)
				}
				inner, _ := prog.Method("inner")
				env.RegisterNative("reenter", func(e *Env, tk *core.Task, args []heap.Word) heap.Word {
					v, err := e.Call(tk, inner, []heap.Word{args[0]})
					if err != nil {
						t.Errorf("nested call: %v", err)
					}
					return v
				})
				main, _ := prog.Method("main")
				rets := make([]heap.Word, warm+1)
				var callErr error
				rt.Spawn("main", sched.NormPriority, func(tk *core.Task) {
					for i := range rets {
						if rets[i], callErr = env.Call(tk, main, nil); callErr != nil {
							return
						}
					}
				})
				if err := rt.Run(); err != nil {
					t.Fatal(err)
				}
				if callErr != nil {
					t.Fatal(callErr)
				}
				for i, ret := range rets {
					if ret != 234 {
						t.Fatalf("call %d: main = %d, want 234", i, ret)
					}
				}
			})
		}
	}
}

// invokeLoopSrc calls a 2-argument method from a loop run n times, n
// being main's argument.
const invokeLoopSrc = `
method main args 1 locals 2 returns {
  loop:
    load 0
    ifz done
    load 0
    load 1
    invoke add2
    store 1
    load 0
    const 1
    sub
    store 0
    goto loop
  done:
    load 1
    ireturn
}
method add2 args 2 locals 3 returns {
    load 0
    load 1
    add
    load 2
    add
    ireturn
}
`

// TestInvokeReturnAllocFree pins the allocation-free call path: on every
// tier, a whole run (runtime, Env, thread and interpreter set-up included)
// allocates as much with 5000 call/return pairs as with 20, so a
// steady-state INVOKE/RETURN pair allocates nothing. The slack of a few
// allocations per run absorbs the Go runtime's own, which vary with GC
// timing (a collection empties the caches that goroutine handoffs draw
// on); one allocation per call would exceed it a thousandfold.
func TestInvokeReturnAllocFree(t *testing.T) {
	prog := bytecode.MustAssemble(invokeLoopSrc)
	if err := bytecode.Verify(prog); err != nil {
		t.Fatal(err)
	}
	main, _ := prog.Method("main")
	for _, tier := range allTiers {
		t.Run(tier.String(), func(t *testing.T) {
			run := func(n int) func() {
				return func() {
					// One quantum covers the whole run: a single thread has
					// nothing to switch to.
					rt := core.New(core.Config{Mode: core.Revocation, Sched: sched.Config{Quantum: 1 << 40}})
					env, err := NewEnv(rt, prog, Options{Tier: tier})
					if err != nil {
						t.Fatal(err)
					}
					var ret heap.Word
					var callErr error
					rt.Spawn("main", sched.NormPriority, func(tk *core.Task) {
						ret, callErr = env.Call(tk, main, []heap.Word{heap.Word(n)})
					})
					if err := rt.Run(); err != nil {
						t.Fatal(err)
					}
					if want := heap.Word(n * (n + 1) / 2); callErr != nil || ret != want {
						t.Fatalf("main(%d) = %d, %v; want %d", n, ret, callErr, want)
					}
				}
			}
			const slack = 5
			few := testing.AllocsPerRun(20, run(20))
			many := testing.AllocsPerRun(20, run(5000))
			if many > few+slack {
				t.Fatalf("%v tier: %.0f allocs per run with 5000 calls, %.0f with 20: the call path allocates", tier, many, few)
			}
		})
	}
}

// TestPopFrameForgetsRollbackTarget pins the one exception to "no *frame
// outlives its pop": a rollback in flight whose target frame is popped
// stops naming it, so the frame object the next push reuses can never be
// mistaken for the old target by CHECKTARGET.
func TestPopFrameForgetsRollbackTarget(t *testing.T) {
	prog := bytecode.MustAssemble("method main locals 1 {\n    return\n}\n")
	env, err := NewEnv(core.New(core.Config{}), prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := prog.Method("main")
	r := env.rec(m)
	in := &Interp{env: env}
	below := in.pushFrame(r)
	target := in.pushFrame(r)
	target.locals[0] = 9
	in.pending = &inflight{rollback: true, targetFrame: target}
	in.popFrame()
	if in.pending.targetFrame != nil {
		t.Fatal("popping the target frame left the rollback pointing at it")
	}
	again := in.pushFrame(r)
	if again != target {
		t.Fatal("pushFrame did not reuse the popped frame")
	}
	if again.locals[0] != 0 || again.pc != 0 || len(again.stack) != 0 {
		t.Fatalf("reused frame not reset: pc %d locals %v stack %v", again.pc, again.locals, again.stack)
	}
	in.pending.targetFrame = below
	in.popFrame()
	if in.pending.targetFrame != below {
		t.Fatal("popping a frame above the target cleared the target")
	}
}
