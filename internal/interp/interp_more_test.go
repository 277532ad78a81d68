package interp

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/rewrite"
	"repro/internal/sched"
)

// TestRevocationDiscardsCalleeFrames: a revocation delivered while the
// doomed section is several method calls deep must discard the callee
// activations and restart from the monitorenter (the paper's stack-unwind
// through nested exception scopes, §3.1.2).
func TestRevocationDiscardsCalleeFrames(t *testing.T) {
	src := `
static lockRef = 0
static depthReached = 0
class Lock {
    unused
}
thread init priority 9 run setup
thread low priority 2 run lowMain
thread high priority 8 run highMain

method setup locals 1 {
    newobj Lock
    store 0
    load 0
    putstatic lockRef
    return
}

method lowMain locals 1 {
  spin:
    getstatic lockRef
    ifz spin
    getstatic lockRef
    store 0
    sync 0 {
        invoke level1
    }
    return
}
method level1 locals 0 {
    invoke level2
    return
}
method level2 locals 0 {
    const 3
    putstatic depthReached
    const 3000
    work           # revocation lands here, three frames deep
    return
}

method highMain locals 1 {
    const 300
    sleep
    getstatic lockRef
    store 0
    sync 0 {
        nop
    }
    return
}
`
	prog, err := rewrite.Rewrite(bytecode.MustAssemble(src))
	if err != nil {
		t.Fatal(err)
	}
	rt := core.New(core.Config{Mode: core.Revocation, Sched: sched.Config{Quantum: 200}})
	env, err := Run(rt, prog, Options{Rewritten: true})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Stats().Rollbacks == 0 {
		t.Fatal("no rollback across call frames")
	}
	idx, _ := prog.StaticIndex("depthReached")
	// The write happened in the re-execution too: net value 3.
	if got := env.RT.Heap().GetStatic(idx); got != 3 {
		t.Fatalf("depthReached = %d, want 3", got)
	}
}

// TestBytecodeDeadlockBroken: the classic two-lock deadlock written in
// bytecode, resolved by revocation.
func TestBytecodeDeadlockBroken(t *testing.T) {
	src := `
static lockA = 0
static lockB = 0
static done = 0
class Lock {
    unused
}
thread init priority 9 run setup
thread t1 priority 5 run first
thread t2 priority 5 run second

method setup locals 2 {
    newobj Lock
    store 0
    load 0
    putstatic lockA
    newobj Lock
    store 1
    load 1
    putstatic lockB
    return
}

method first locals 2 {
  spin:
    getstatic lockB
    ifz spin
    getstatic lockA
    store 0
    getstatic lockB
    store 1
    sync 0 {
        const 500
        work
        sync 1 {
            const 10
            work
        }
    }
    getstatic done
    const 1
    add
    putstatic done
    return
}

method second locals 2 {
  spin:
    getstatic lockB
    ifz spin
    getstatic lockA
    store 0
    getstatic lockB
    store 1
    sync 1 {
        const 500
        work
        sync 0 {
            const 10
            work
        }
    }
    getstatic done
    const 1
    add
    putstatic done
    return
}
`
	prog, err := rewrite.Rewrite(bytecode.MustAssemble(src))
	if err != nil {
		t.Fatal(err)
	}
	rt := core.New(core.Config{
		Mode:              core.Revocation,
		DeadlockDetection: true,
		Sched:             sched.Config{Quantum: 100},
	})
	env, err := Run(rt, prog, Options{Rewritten: true})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Stats().DeadlocksBroken == 0 {
		t.Fatal("deadlock not broken")
	}
	idx, _ := prog.StaticIndex("done")
	if got := env.RT.Heap().GetStatic(idx); got != 2 {
		t.Fatalf("done = %d, want 2", got)
	}
}

// TestNativeInSectionForcesNonRevocable via bytecode: after a native call
// (print) the section cannot be revoked.
func TestNativeInSectionForcesNonRevocable(t *testing.T) {
	src := `
static lockRef = 0
class Lock {
    unused
}
thread init priority 9 run setup
thread low priority 2 run lowMain
thread high priority 8 run highMain
method setup locals 1 {
    newobj Lock
    store 0
    load 0
    putstatic lockRef
    return
}
method lowMain locals 1 {
  spin:
    getstatic lockRef
    ifz spin
    getstatic lockRef
    store 0
    sync 0 {
        const 7
        native print 1
        pop
        const 3000
        work
    }
    return
}
method highMain locals 1 {
    const 300
    sleep
    getstatic lockRef
    store 0
    sync 0 {
        nop
    }
    return
}
`
	prog, err := rewrite.Rewrite(bytecode.MustAssemble(src))
	if err != nil {
		t.Fatal(err)
	}
	rt := core.New(core.Config{Mode: core.Revocation, Sched: sched.Config{Quantum: 200}})
	env, err := Run(rt, prog, Options{Rewritten: true})
	if err != nil {
		t.Fatal(err)
	}
	st := rt.Stats()
	if st.Rollbacks != 0 {
		t.Fatalf("section with native call was revoked: %+v", st)
	}
	if st.RevocationsDenied == 0 {
		t.Fatal("revocation not denied")
	}
	// The print ran exactly once: irrevocable effects never repeat.
	if len(env.Printed) != 1 || env.Printed[0] != 7 {
		t.Fatalf("Printed = %v, want [7]", env.Printed)
	}
}

// TestWorkAndSleepOpcodes advance virtual time as specified.
func TestWorkAndSleepOpcodes(t *testing.T) {
	prog := bytecode.MustAssemble(`
thread t priority 5 run main
method main locals 0 {
    const 100
    work
    const 200
    sleep
    return
}
`)
	rt := core.New(core.Config{Mode: core.Unmodified, Sched: sched.Config{Quantum: 10000}})
	if _, err := Run(rt, prog, Options{CostPerInstr: 1}); err != nil {
		t.Fatal(err)
	}
	// 5 instructions @1 + 100 work + 200 sleep = 305.
	if got := int64(rt.Now()); got != 305 {
		t.Fatalf("end time = %d, want 305", got)
	}
}

// TestNowAndPriorityNatives exercise the built-in natives.
func TestNowAndPriorityNatives(t *testing.T) {
	_, env := callMain(t, `
method main locals 0 returns {
    native now 0
    pop
    native threadpriority 0
    native print 1
    pop
    const 0
    ireturn
}
`)
	if len(env.Printed) != 1 || env.Printed[0] != int64OfPriority() {
		t.Fatalf("Printed = %v, want [%d]", env.Printed, int64OfPriority())
	}
}

func int64OfPriority() heap.Word { return heap.Word(sched.NormPriority) }

// TestCustomNative registers a native and calls it.
func TestCustomNative(t *testing.T) {
	prog := bytecode.MustAssemble(`
thread t priority 5 run main
static out = 0
method main locals 0 {
    const 6
    const 7
    native mulnative 2
    putstatic out
    return
}
`)
	rt := core.New(core.Config{})
	env, err := NewEnv(rt, prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	env.RegisterNative("mulnative", func(e *Env, tk *core.Task, args []heap.Word) heap.Word {
		return args[0] * args[1]
	})
	if err := env.SpawnDeclaredThreads(); err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	idx, _ := prog.StaticIndex("out")
	if got := rt.Heap().GetStatic(idx); got != 42 {
		t.Fatalf("out = %d", got)
	}
}

// TestUnknownNativeFails cleanly.
func TestUnknownNativeFails(t *testing.T) {
	prog := bytecode.MustAssemble(`
method main locals 0 {
    native nonexistent 0
    pop
    return
}
`)
	rt := core.New(core.Config{})
	env, err := NewEnv(rt, prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := prog.Method("main")
	var callErr error
	rt.Spawn("main", sched.NormPriority, func(tk *core.Task) {
		_, callErr = env.Call(tk, m, nil)
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if callErr == nil || !strings.Contains(callErr.Error(), "nonexistent") {
		t.Fatalf("err = %v", callErr)
	}
}

// TestEnvRequiresFreshRuntime: statics are laid out by the Env; a reused
// runtime would corrupt offsets.
func TestEnvRequiresFreshRuntime(t *testing.T) {
	rt := core.New(core.Config{})
	rt.Heap().DefineStatic("already", false, 0)
	prog := bytecode.MustAssemble(`
static x = 0
method main locals 0 {
    return
}
`)
	if _, err := NewEnv(rt, prog, Options{}); err == nil {
		t.Fatal("Env accepted a runtime with pre-existing statics")
	}
}

// TestCallArgMismatch reports arity errors.
func TestCallArgMismatch(t *testing.T) {
	prog := bytecode.MustAssemble(`
method two args 2 locals 2 {
    return
}
`)
	rt := core.New(core.Config{})
	env, err := NewEnv(rt, prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := prog.Method("two")
	var callErr error
	rt.Spawn("t", sched.NormPriority, func(tk *core.Task) {
		_, callErr = env.Call(tk, m, nil)
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if callErr == nil {
		t.Fatal("arity mismatch accepted")
	}
}

// genArithProgram builds a random straight-line arithmetic method; used to
// property-test the two execution tiers against each other.
func genArithProgram(rng *rand.Rand) string {
	var b strings.Builder
	b.WriteString("method main locals 4 returns {\n")
	// Seed the locals.
	for i := 0; i < 4; i++ {
		fmt.Fprintf(&b, "    const %d\n    store %d\n", rng.Intn(100)+1, i)
	}
	// Keep one accumulator on the stack.
	b.WriteString("    const 1\n")
	ops := []string{"add", "sub", "mul"}
	for i := 0; i < 20+rng.Intn(30); i++ {
		switch rng.Intn(4) {
		case 0:
			fmt.Fprintf(&b, "    const %d\n    %s\n", rng.Intn(50)+1, ops[rng.Intn(len(ops))])
		case 1:
			fmt.Fprintf(&b, "    load %d\n    %s\n", rng.Intn(4), ops[rng.Intn(len(ops))])
		case 2:
			fmt.Fprintf(&b, "    dup\n    %s\n", ops[rng.Intn(len(ops))])
		case 3:
			fmt.Fprintf(&b, "    neg\n")
		}
	}
	b.WriteString("    ireturn\n}\n")
	return b.String()
}

// TestTiersAgreeOnRandomPrograms: the switch interpreter and the fused
// tier compute identical results on random arithmetic programs.
func TestTiersAgreeOnRandomPrograms(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		src := genArithProgram(rng)
		a := callMainWith(t, src, Options{})
		b := callMainWith(t, src, Options{Tier: TierOpt})
		return a == b
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestInterleavedRevocationsTwoLocks: two independent locks, two low
// threads, two high threads; each high revokes its own victim without
// cross-talk.
func TestInterleavedRevocationsTwoLocks(t *testing.T) {
	src := `
static lockA = 0
static lockB = 0
static dataA = 0
static dataB = 0
class Lock {
    unused
}
thread init priority 9 run setup
thread lowA priority 2 run lowAMain
thread lowB priority 2 run lowBMain
thread highA priority 8 run highAMain
thread highB priority 8 run highBMain

method setup locals 1 {
    newobj Lock
    store 0
    load 0
    putstatic lockA
    newobj Lock
    store 0
    load 0
    putstatic lockB
    return
}
method lowAMain locals 1 {
  spin:
    getstatic lockB
    ifz spin
    getstatic lockA
    store 0
    sync 0 {
        const 1
        putstatic dataA
        const 4000
        work
    }
    return
}
method lowBMain locals 1 {
  spin:
    getstatic lockB
    ifz spin
    getstatic lockB
    store 0
    sync 0 {
        const 2
        putstatic dataB
        const 4000
        work
    }
    return
}
method highAMain locals 1 {
    const 500
    sleep
    getstatic lockA
    store 0
    sync 0 {
        getstatic dataA
        const 10
        add
        putstatic dataA
    }
    return
}
method highBMain locals 1 {
    const 500
    sleep
    getstatic lockB
    store 0
    sync 0 {
        getstatic dataB
        const 20
        add
        putstatic dataB
    }
    return
}
`
	prog, err := rewrite.Rewrite(bytecode.MustAssemble(src))
	if err != nil {
		t.Fatal(err)
	}
	rt := core.New(core.Config{Mode: core.Revocation, Sched: sched.Config{Quantum: 300}})
	env, err := Run(rt, prog, Options{Rewritten: true})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Stats().Rollbacks < 2 {
		t.Fatalf("rollbacks = %d, want >= 2 (one per lock)", rt.Stats().Rollbacks)
	}
	getS := func(name string) heap.Word {
		idx, _ := prog.StaticIndex(name)
		return env.RT.Heap().GetStatic(idx)
	}
	// Highs ran on clean state (0+10, 0+20), lows re-executed after.
	if getS("dataA") != 1 || getS("dataB") != 2 {
		t.Fatalf("dataA=%d dataB=%d, want 1, 2", getS("dataA"), getS("dataB"))
	}
}
