package interp

import (
	"testing"

	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/rewrite"
	"repro/internal/sched"
)

// TestOperandStackRestoredAcrossRevocation is the runtime test of §3.1.1's
// trickiest transformation: "The contents of the VM's operand stack before
// executing a monitorenter operation must be the same at the first
// invocation and at all subsequent invocations resulting from that
// section's re-execution."
//
// The low thread enters its synchronized section with two live operands on
// the stack (37 and 5) that are consumed only *after* the section exits.
// The section is revoked and re-executed; if SAVESTACK/RESTORESTACK did not
// preserve the operands, the final sum would be wrong or the verifier-time
// depth bookkeeping would corrupt the stack.
func TestOperandStackRestoredAcrossRevocation(t *testing.T) {
	src := `
static lockRef = 0
static result = 0
static sectionData = 0
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
    const 37           # two live operands across the whole section
    const 5
    sync 0 {
        const 1
        putstatic sectionData
        const 3000
        work
    }
    add                # 37 + 5, valid only if the stack was restored
    putstatic result
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
	for _, tier := range allTiers {
		name := tier.String()
		if tier == TierExec {
			name = "interpreter"
		}
		t.Run(name, func(t *testing.T) {
			prog, err := rewrite.Rewrite(bytecode.MustAssemble(src))
			if err != nil {
				t.Fatal(err)
			}
			// The rewriter must have inserted a depth-2 SAVESTACK.
			low, _ := prog.Method("lowMain")
			found := false
			for _, in := range low.Code {
				if in.Op == bytecode.SAVESTACK && in.V == 2 {
					found = true
				}
			}
			if !found {
				t.Fatalf("no depth-2 SAVESTACK injected:\n%s", bytecode.Disassemble(low))
			}
			rt := core.New(core.Config{Mode: core.Revocation, Sched: sched.Config{Quantum: 200}})
			env, err := Run(rt, prog, Options{Rewritten: true, Tier: tier})
			if err != nil {
				t.Fatal(err)
			}
			if rt.Stats().Rollbacks == 0 {
				t.Fatal("no rollback — the stack-restore path was not exercised")
			}
			idx, _ := prog.StaticIndex("result")
			if got := env.RT.Heap().GetStatic(idx); got != 42 {
				t.Fatalf("result = %d, want 42 (operand stack corrupted by re-execution)", got)
			}
		})
	}
}

// TestOperandStackRestoredTwice: two consecutive revocations of the same
// section must each restore the same operands.
func TestOperandStackRestoredTwice(t *testing.T) {
	src := `
static lockRef = 0
static result = 0
class Lock {
    unused
}
thread init priority 9 run setup
thread low priority 2 run lowMain
thread highA priority 8 run highAMain
thread highB priority 8 run highBMain

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
    const 20
    const 22
    sync 0 {
        const 3000
        work
    }
    add
    putstatic result
    return
}
method highAMain locals 1 {
    const 300
    sleep
    getstatic lockRef
    store 0
    sync 0 {
        const 1500
        work
    }
    return
}
method highBMain locals 1 {
    const 2500
    sleep
    getstatic lockRef
    store 0
    sync 0 {
        const 500
        work
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
	if rt.Stats().Rollbacks < 2 {
		t.Logf("note: only %d rollbacks; still asserting the result", rt.Stats().Rollbacks)
	}
	idx, _ := prog.StaticIndex("result")
	if got := env.RT.Heap().GetStatic(idx); got != 42 {
		t.Fatalf("result = %d, want 42", got)
	}
	var _ heap.Word = 0
}
