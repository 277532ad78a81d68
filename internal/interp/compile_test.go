package interp

import (
	"testing"

	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/rewrite"
	"repro/internal/sched"
)

// callMainWith runs "main" under the given options.
func callMainWith(t *testing.T, src string, opts Options) heap.Word {
	t.Helper()
	prog := bytecode.MustAssemble(src)
	rt := core.New(core.Config{Mode: core.Unmodified, Sched: sched.Config{Quantum: 1000}})
	env, err := NewEnv(rt, prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	m, ok := prog.Method("main")
	if !ok {
		t.Fatal("no main")
	}
	var ret heap.Word
	var callErr error
	rt.Spawn("main", sched.NormPriority, func(tk *core.Task) {
		ret, callErr = env.Call(tk, m, nil)
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if callErr != nil {
		t.Fatal(callErr)
	}
	return ret
}

// TestThreadedMatchesInterpreter runs a mixed workload on both tiers and
// compares results tick for tick.
func TestThreadedMatchesInterpreter(t *testing.T) {
	src := `
static g = 3
class Box {
    v = 2
}
method main locals 3 returns {
    newobj Box
    store 0
    const 0
    store 1      # acc
    const 20
    store 2      # i
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
	b := callMainWith(t, src, Options{Threaded: true})
	if a != b {
		t.Fatalf("tiers disagree: interp=%d threaded=%d", a, b)
	}
}

// TestThreadedVirtualTimeIdentical: both tiers charge identical virtual
// time, so evaluation results do not depend on the execution tier.
func TestThreadedVirtualTimeIdentical(t *testing.T) {
	run := func(threaded bool) (heap.Word, int64) {
		src := `
static acc = 0
method main locals 1 returns {
    const 30
    store 0
  loop:
    load 0
    ifz done
    getstatic acc
    load 0
    add
    putstatic acc
    load 0
    const 1
    sub
    store 0
    goto loop
  done:
    getstatic acc
    ireturn
}
`
		prog := bytecode.MustAssemble(src)
		rt := core.New(core.Config{Mode: core.Revocation, Sched: sched.Config{Quantum: 100}})
		env, err := NewEnv(rt, prog, Options{Threaded: threaded})
		if err != nil {
			t.Fatal(err)
		}
		m, _ := prog.Method("main")
		var ret heap.Word
		rt.Spawn("main", sched.NormPriority, func(tk *core.Task) {
			ret, _ = env.Call(tk, m, nil)
		})
		if err := rt.Run(); err != nil {
			t.Fatal(err)
		}
		return ret, int64(rt.Now())
	}
	r1, t1 := run(false)
	r2, t2 := run(true)
	if r1 != r2 || t1 != t2 {
		t.Fatalf("tiers diverge: (%d, %d ticks) vs (%d, %d ticks)", r1, t1, r2, t2)
	}
}

// TestThreadedRevocation: the threaded tier supports rollback scopes too.
func TestThreadedRevocation(t *testing.T) {
	prog, err := rewrite.Rewrite(bytecode.MustAssemble(revocationProgram))
	if err != nil {
		t.Fatal(err)
	}
	rt := core.New(core.Config{
		Mode:              core.Revocation,
		TrackDependencies: true,
		Sched:             sched.Config{Quantum: 200},
	})
	env, err := Run(rt, prog, Options{Rewritten: true, Threaded: true})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Stats().Rollbacks == 0 {
		t.Fatal("no rollback on the threaded tier")
	}
	idx, _ := env.Prog.StaticIndex("highSawDirty")
	if got := env.RT.Heap().GetStatic(idx); got != 0 {
		t.Fatalf("high saw speculative data = %d", got)
	}
}

// TestThreadedExceptions: user-exception dispatch works identically.
func TestThreadedExceptions(t *testing.T) {
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
	if got := callMainWith(t, src, Options{Threaded: true}); got != 5 {
		t.Fatalf("ret = %d", got)
	}
}

// TestCompileCache: compiling the same method twice returns the cache.
func TestCompileCache(t *testing.T) {
	prog := bytecode.MustAssemble(`
method main locals 0 returns {
    const 1
    ireturn
}
`)
	rt := core.New(core.Config{})
	env, err := NewEnv(rt, prog, Options{Threaded: true})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := prog.Method("main")
	f1 := env.compile(env.rec(m))
	f2 := env.compile(env.rec(m))
	if &f1[0] != &f2[0] {
		t.Fatal("compile not cached")
	}
}
