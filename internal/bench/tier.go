// Micro-benchmark bodies for the compact lock word and the fused
// compiler. Like micro.go, they live outside _test.go files so the go test
// suite (bench_test.go at the repo root) and the cmd/figures -json emitter
// run the same code.
package bench

import (
	"testing"

	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/interp"
	"repro/internal/sched"
)

// MonitorVariants are the uncontended-acquisition shapes the lock-word
// benchmarks cover: "thin" is the single-word fast path, "inflated" pins
// the monitor on the full prioritized-queue representation
// (Config.DisableThinLocks), "nonrevocable" goes through the core
// engine's fused non-revocable entry — the path the fused tier compiles
// statically proven sections to, including section-frame bookkeeping — and
// "confined" is the charge-only no-op a certified thread-confined
// enter/exit compiles to (the whole-monitor elision of the escape pass):
// no lock word is touched at all, only the elision counter.
var MonitorVariants = []string{"thin", "inflated", "nonrevocable", "confined"}

// monitorPairBench builds the shared enter+exit measurement. One benchmark
// iteration is one uncontended monitorenter plus its matching monitorexit;
// the reported ns/op metric is per OPERATION (elapsed / 2N), which is what
// the Enter and Exit benchmarks both surface — on an uncontended monitor
// the two halves are inseparable without skewing either.
func monitorPairBench(variant string) func(b *testing.B) {
	return func(b *testing.B) {
		cfg := core.Config{Mode: core.Revocation, NoCosts: true}
		if variant == "inflated" {
			cfg.DisableThinLocks = true
		}
		rt := core.New(cfg)
		m := rt.NewMonitor("m")
		rt.Spawn("t", sched.NormPriority, func(tk *core.Task) {
			th := tk.Thread()
			b.ResetTimer()
			switch variant {
			case "nonrevocable":
				for i := 0; i < b.N; i++ {
					tk.EngineEnterNonRevocable(m, "bench")
					tk.EngineExit(m)
				}
			case "confined":
				// The certified no-op never consults the monitor: the
				// runtime work of an elided enter or exit is one stats
				// increment (the interpreter's null check is on its own
				// operand stack, not on the lock word).
				for i := 0; i < b.N; i++ {
					tk.CountConfinedElision()
					tk.CountConfinedElision()
				}
			default:
				for i := 0; i < b.N; i++ {
					m.TryEnter(th)
					m.Exit(th)
				}
			}
			b.StopTimer()
		})
		if err := rt.Run(); err != nil {
			b.Fatal(err)
		}
		switch variant {
		case "thin":
			if m.Inflations() != 0 {
				b.Fatalf("thin variant inflated %d times", m.Inflations())
			}
		case "inflated":
			if !m.Inflated() || m.ThinAcquisitions() != 0 {
				b.Fatalf("inflated variant took %d thin acquisitions", m.ThinAcquisitions())
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(2*b.N), "ns/op")
	}
}

// MonitorEnterUncontendedBench measures one uncontended monitorenter on the
// given lock-word variant (see monitorPairBench for the pairing).
func MonitorEnterUncontendedBench(variant string) func(b *testing.B) {
	return monitorPairBench(variant)
}

// MonitorExitUncontendedBench measures one uncontended monitorexit on the
// given lock-word variant (see monitorPairBench for the pairing).
func MonitorExitUncontendedBench(variant string) func(b *testing.B) {
	return monitorPairBench(variant)
}

// ElidedWriteBarrierBench measures a store whose barrier static analysis
// removed: the exact runtime sequence of the RAW opcodes — the elision
// counter, the plain heap store, and the (disabled) race-sanitizer check.
// The universal yield point every instruction pays is excluded; compare
// against WriteBarrierBench for the full logging barrier.
func ElidedWriteBarrierBench(b *testing.B) {
	const slots = 64
	rt := core.New(core.Config{Mode: core.Revocation, NoCosts: true})
	o := rt.Heap().AllocPlain("C", slots)
	rt.Spawn("w", sched.NormPriority, func(tk *core.Task) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tk.CountRawStore()
			o.Set(i%slots, heap.Word(i))
			tk.RaceRawWriteField(o, i%slots)
		}
		b.StopTimer()
	})
	if err := rt.Run(); err != nil {
		b.Fatal(err)
	}
}

// TierProgram is one bytecode workload for the dispatch comparison.
type TierProgram struct {
	Name string
	Src  string
}

// TierPrograms are the dispatch workloads: an "opt" run compiles every
// method to fused superinstructions at its first activation, while an
// "exec" run decodes and dispatches instruction by instruction.
var TierPrograms = []TierProgram{
	{
		// A compute loop re-entered via INVOKE: straight-line arithmetic
		// runs that fusion collapses to one dispatch each.
		Name: "hotloop",
		Src: `
static acc = 0
thread t priority 5 run main
method main locals 1 {
    const 300
    store 0
  outer:
    load 0
    ifz done
    invoke step
    pop
    load 0
    const 1
    sub
    store 0
    goto outer
  done:
    return
}
method step locals 1 returns {
    const 200
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
`,
	},
	{
		// Call-heavy: deep INVOKE/RETURN chains exercising the
		// compile-time-resolved call sites.
		Name: "calls",
		Src: `
static acc = 0
thread t priority 5 run main
method main locals 1 {
    const 4000
    store 0
  outer:
    load 0
    ifz done
    load 0
    invoke add3
    pop
    load 0
    const 1
    sub
    store 0
    goto outer
  done:
    return
}
method add3 args 1 locals 0 returns {
    load 0
    invoke add2
    ireturn
}
method add2 args 1 locals 0 returns {
    load 0
    invoke add1
    ireturn
}
method add1 args 1 locals 2 returns {
    getstatic acc
    load 0
    add
    load 0
    mul
    load 0
    sub
    store 1
    load 1
    load 0
    add
    load 1
    mul
    load 1
    sub
    putstatic acc
    getstatic acc
    ireturn
}
`,
	},
}

// TierDispatchBench runs one TierProgram end to end per iteration on the
// given execution tier (fresh runtime and Env each time, so per-run
// compilation is part of the measured cost for every tier).
func TierDispatchBench(p TierProgram, tier interp.Tier) func(b *testing.B) {
	return func(b *testing.B) {
		prog := bytecode.MustAssemble(p.Src)
		for i := 0; i < b.N; i++ {
			rt := core.New(core.Config{Mode: core.Revocation, NoCosts: true})
			if _, err := interp.Run(rt, prog.Clone(), interp.Options{Tier: tier}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// Tiers is every execution tier, in order.
var Tiers = []interp.Tier{interp.TierExec, interp.TierOpt}

// invokeReturnSrc calls a 2-argument method from a loop run n times, n
// being main's argument.
const invokeReturnSrc = `
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
method add2 args 2 locals 2 returns {
    load 0
    load 1
    add
    ireturn
}
`

// InterpInvokeReturnBench measures one INVOKE/RETURN pair of a 2-argument
// method on the given tier, with the loop around it: one iteration is one
// pass of main's loop (11 instructions besides the callee's 4). A warm-up
// call compiles both methods first on TierOpt, so the timed call runs at
// steady state.
func InterpInvokeReturnBench(tier interp.Tier) func(b *testing.B) {
	return func(b *testing.B) {
		prog := bytecode.MustAssemble(invokeReturnSrc)
		rt := core.New(core.Config{Mode: core.Revocation, NoCosts: true, Sched: sched.Config{Quantum: 1 << 40}})
		env, err := interp.NewEnv(rt, prog, interp.Options{Tier: tier})
		if err != nil {
			b.Fatal(err)
		}
		main, _ := prog.Method("main")
		var callErr error
		rt.Spawn("t", sched.NormPriority, func(tk *core.Task) {
			if _, callErr = env.Call(tk, main, []heap.Word{2}); callErr != nil {
				return
			}
			b.ResetTimer()
			_, callErr = env.Call(tk, main, []heap.Word{heap.Word(b.N)})
			b.StopTimer()
		})
		if err := rt.Run(); err != nil {
			b.Fatal(err)
		}
		if callErr != nil {
			b.Fatal(callErr)
		}
	}
}

// ContextSwitchBench measures a scheduler round trip: one iteration is
// two threads yielding to each other once each.
func ContextSwitchBench(b *testing.B) {
	s := sched.New(sched.Config{Quantum: 1})
	mk := func(name string) {
		s.Spawn(name, sched.NormPriority, func(th *sched.Thread) {
			for i := 0; i < b.N; i++ {
				th.Yield()
			}
		})
	}
	mk("a")
	mk("b")
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// StepBench measures one steady-state per-instruction charge: Task.Step(1)
// on a running task with costs on, no profiler, and a quantum too long to
// expire during the run, so every iteration is a yield point that does
// not switch — the charge every interpreted instruction pays.
func StepBench(b *testing.B) {
	rt := core.New(core.Config{Mode: core.Revocation, Sched: sched.Config{Quantum: 1 << 40}})
	rt.Spawn("t", sched.NormPriority, func(tk *core.Task) {
		tk.Step(1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tk.Step(1)
		}
		b.StopTimer()
	})
	if err := rt.Run(); err != nil {
		b.Fatal(err)
	}
}
