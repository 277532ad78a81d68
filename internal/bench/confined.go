// Whole-monitor elision benchmark: the same confined-lock loop executed
// on the opt tier with real thin-lock monitors versus with the certified
// confined enter/exit pairs compiled to charge-only no-ops. The off/on
// delta is what the escape analysis buys per synchronized section on a
// thread-confined lock. Lives outside _test.go for the same reason as
// micro.go: cmd/figures -json records both halves in the trajectory file.
package bench

import (
	"io"
	"testing"

	"repro/internal/analysis"
	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/rewrite"
	"repro/internal/sched"
)

// confinedMonitorPairs is the number of enter+exit pairs one program run
// executes; the reported ns/op metric divides by 2*pairs so it prices a
// single MONITORENTER or MONITOREXIT with per-run setup amortized away.
const confinedMonitorPairs = 4096

// confinedMonitorProgram loops over an EMPTY synchronized section on a
// scratch lock that never escapes its thread. The body is empty on
// purpose: with no stores to elide and a revocable section, the only
// instructions that differ between the off and on runs are the monitor
// enter/exit themselves, so the pair isolates exactly the whole-monitor
// elision.
const confinedMonitorProgram = `
class Lock {
    unused
}
thread main priority 5 run main
method main locals 2 {
    newobj Lock
    store 0
    const 4096
    store 1
  loop:
    load 1
    ifz done
    sync 0 {
    }
    load 1
    const 1
    sub
    store 1
    goto loop
  done:
    return
}
`

// ConfinedMonitorEnterExitBench returns the benchmark body for one half
// of the off/on pair. elided=false runs the rewritten program with no
// facts (every monitorenter takes the real thin-lock path); elided=true
// runs the rvmrun -static pipeline, whose certified confinement proof
// compiles both halves of every pair to charge-only no-ops. Each
// iteration is one full program run on the opt tier; the ns/op metric is
// per monitor operation.
func ConfinedMonitorEnterExitBench(elided bool) func(b *testing.B) {
	return func(b *testing.B) {
		prog, err := rewrite.Rewrite(bytecode.MustAssemble(confinedMonitorProgram))
		if err != nil {
			b.Fatal(err)
		}
		var facts *analysis.Facts
		if elided {
			facts, err = analysis.Analyze(prog)
			if err != nil {
				b.Fatal(err)
			}
			rewrite.ApplyStaticElision(prog, facts)
		}
		var st core.Stats
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rt := core.New(core.Config{
				Mode: core.Revocation, NoCosts: true,
				Sched: sched.Config{Quantum: 1 << 40},
			})
			if _, err := interp.Run(rt, prog, interp.Options{
				Rewritten: true,
				Tier:      interp.TierOpt,
				Facts:     facts,
				Out:       io.Discard,
			}); err != nil {
				b.Fatal(err)
			}
			st = rt.Stats()
		}
		b.StopTimer()
		// The two halves must actually take the paths they claim to price.
		if elided && st.ConfinedElisions != 2*confinedMonitorPairs {
			b.Fatalf("elided run executed %d confined no-ops, want %d", st.ConfinedElisions, 2*confinedMonitorPairs)
		}
		if !elided && st.ConfinedElisions != 0 {
			b.Fatalf("baseline run took %d confined no-ops, want 0", st.ConfinedElisions)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(2*confinedMonitorPairs*b.N), "ns/op")
	}
}
