// Package repro's top-level benchmarks regenerate every figure of the
// paper's evaluation section (one benchmark per figure panel) and measure
// the mechanism's primitive costs (write barrier, logging, rollback,
// monitor operations, context switch).
//
// Run the figure benches with:
//
//	go test -bench 'Figure' -benchmem
//
// Each figure benchmark reports the reproduced normalized series via
// b.ReportMetric: "mod@0w" / "mod@100w" are the MODIFIED series at 0 % and
// 100 % writes (UNMODIFIED at 0 % writes ≡ 1.0 by construction), matching
// the y-axes of the paper's plots.
package repro

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/analysis"
	"repro/internal/bench"
	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/interp"
	"repro/internal/rewrite"
	"repro/internal/sched"
	"repro/revoke"
)

// benchFigurePanel runs one panel of one figure per benchmark iteration.
func benchFigurePanel(b *testing.B, figure, panel int) {
	spec := bench.Specs[figure]
	var first, last float64
	for i := 0; i < b.N; i++ {
		fig, err := bench.RunFigure(figure, bench.ScaleSmall, nil)
		if err != nil {
			b.Fatal(err)
		}
		pts := fig.Panels[panel].Points
		first, last = pts[0].Modified, pts[len(pts)-1].Modified
	}
	_ = spec
	b.ReportMetric(first, "mod@0w")
	b.ReportMetric(last, "mod@100w")
}

// Figures 5 and 6: total elapsed time of high-priority threads (§4.2).

func BenchmarkFigure5PanelA_2High8Low(b *testing.B) { benchFigurePanel(b, 5, 0) }
func BenchmarkFigure5PanelB_5High5Low(b *testing.B) { benchFigurePanel(b, 5, 1) }
func BenchmarkFigure5PanelC_8High2Low(b *testing.B) { benchFigurePanel(b, 5, 2) }

func BenchmarkFigure6PanelA_2High8Low(b *testing.B) { benchFigurePanel(b, 6, 0) }
func BenchmarkFigure6PanelB_5High5Low(b *testing.B) { benchFigurePanel(b, 6, 1) }
func BenchmarkFigure6PanelC_8High2Low(b *testing.B) { benchFigurePanel(b, 6, 2) }

// Figures 7 and 8: overall elapsed time (§4.2).

func BenchmarkFigure7PanelA_2High8Low(b *testing.B) { benchFigurePanel(b, 7, 0) }
func BenchmarkFigure7PanelB_5High5Low(b *testing.B) { benchFigurePanel(b, 7, 1) }
func BenchmarkFigure7PanelC_8High2Low(b *testing.B) { benchFigurePanel(b, 7, 2) }

func BenchmarkFigure8PanelA_2High8Low(b *testing.B) { benchFigurePanel(b, 8, 0) }
func BenchmarkFigure8PanelB_5High5Low(b *testing.B) { benchFigurePanel(b, 8, 1) }
func BenchmarkFigure8PanelC_8High2Low(b *testing.B) { benchFigurePanel(b, 8, 2) }

// ---------------------------------------------------------------------------
// Primitive-cost micro-benchmarks (wall clock, NoCosts mode so the virtual
// clock does not interfere).

// BenchmarkWriteBarrierOutsideSection measures the fast path: a store with
// no active synchronized section (the "fast-path test on every non-local
// update", §1.1).
func BenchmarkWriteBarrierOutsideSection(b *testing.B) {
	rt := core.New(core.Config{Mode: core.Revocation, NoCosts: true})
	o := rt.Heap().AllocPlain("C", 1)
	rt.Spawn("w", sched.NormPriority, func(tk *core.Task) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tk.WriteField(o, 0, heap.Word(i))
		}
	})
	if err := rt.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkWriteBarrierLogging measures the slow path: a store inside a
// synchronized section, appending to the undo log.
func BenchmarkWriteBarrierLogging(b *testing.B) {
	rt := core.New(core.Config{Mode: core.Revocation, NoCosts: true})
	o := rt.Heap().AllocPlain("C", 1)
	m := rt.NewMonitor("m")
	rt.Spawn("w", sched.NormPriority, func(tk *core.Task) {
		tk.Synchronized(m, func() {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tk.WriteField(o, 0, heap.Word(i))
			}
		})
	})
	if err := rt.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkWriteBarrierLoggingTracked adds §2.2 dependency registration.
func BenchmarkWriteBarrierLoggingTracked(b *testing.B) {
	rt := core.New(core.Config{Mode: core.Revocation, NoCosts: true, TrackDependencies: true})
	o := rt.Heap().AllocPlain("C", 64)
	m := rt.NewMonitor("m")
	rt.Spawn("w", sched.NormPriority, func(tk *core.Task) {
		tk.Synchronized(m, func() {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tk.WriteField(o, i%64, heap.Word(i))
			}
		})
	})
	if err := rt.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkReadUnmodifiedVM is the reference read with no barriers at all.
func BenchmarkReadUnmodifiedVM(b *testing.B) {
	rt := core.New(core.Config{Mode: core.Unmodified, NoCosts: true})
	o := rt.Heap().AllocPlain("C", 1)
	var sink heap.Word
	rt.Spawn("r", sched.NormPriority, func(tk *core.Task) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sink = tk.ReadField(o, 0)
		}
	})
	if err := rt.Run(); err != nil {
		b.Fatal(err)
	}
	_ = sink
}

// BenchmarkRollback measures one full revocation cycle — detection,
// preemption, reverse replay of a 1000-entry log, monitor handoff — as
// seen by the high-priority requester.
func BenchmarkRollback(b *testing.B) {
	const writes = 1000
	rt := core.New(core.Config{Mode: core.Revocation, NoCosts: true, Sched: sched.Config{Quantum: 1 << 40}})
	a := rt.Heap().AllocArray(writes)
	m := rt.NewMonitor("m")
	// Handshake: low fills the log and raises ready; high clears ready and
	// contends, revoking the section; repeat b.N times, then done.
	ready, done := false, false
	rt.Spawn("low", sched.LowPriority, func(tk *core.Task) {
		for !done {
			tk.Synchronized(m, func() {
				if done {
					return
				}
				for k := 0; k < writes; k++ {
					tk.WriteElem(a, k, heap.Word(k))
				}
				ready = true
				// Yield until revoked (virtual time is frozen under
				// NoCosts, so quantum expiry never yields for us).
				for !done && ready {
					tk.Thread().Yield()
					tk.YieldPoint() // delivers the pending revocation
				}
			})
		}
	})
	rt.Spawn("high", sched.HighPriority, func(tk *core.Task) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for !ready {
				tk.Thread().Yield()
			}
			ready = false
			tk.Synchronized(m, func() {})
		}
		b.StopTimer()
		done = true
	})
	if err := rt.Run(); err != nil {
		b.Fatal(err)
	}
	if got := rt.Stats().Rollbacks; got < int64(b.N) {
		b.Fatalf("only %d rollbacks in %d iterations", got, b.N)
	}
}

// BenchmarkMonitorEnterUncontended measures one uncontended monitorenter
// per lock-word variant: thin (single-word fast path), inflated (full
// prioritized-queue monitor, Config.DisableThinLocks), and nonrevocable
// (the core engine's fused entry for statically proven sections). One
// iteration is an enter+exit pair; the ns/op metric is per operation.
func BenchmarkMonitorEnterUncontended(b *testing.B) {
	for _, v := range bench.MonitorVariants {
		b.Run(v, bench.MonitorEnterUncontendedBench(v))
	}
}

// BenchmarkMonitorExitUncontended is the exit half of the pair above.
func BenchmarkMonitorExitUncontended(b *testing.B) {
	for _, v := range bench.MonitorVariants {
		b.Run(v, bench.MonitorExitUncontendedBench(v))
	}
}

// BenchmarkElidedWriteBarrier measures a store whose barrier the static
// analysis removed (the RAW opcode runtime sequence).
func BenchmarkElidedWriteBarrier(b *testing.B) {
	bench.ElidedWriteBarrierBench(b)
}

// BenchmarkFlightRecorderAppend measures one steady-state flight-recorder
// Emit — the per-event price of always-on recording. The bench gate holds
// this under regression; the host-relative budget (1.33 passes of a
// calibration loop, 0 allocs) is pinned by TestFlightRecorderAppendBudget
// in internal/bench.
func BenchmarkFlightRecorderAppend(b *testing.B) {
	bench.FlightRecorderAppendBench(b)
}

// BenchmarkCritPathBuild times happens-before DAG construction, invariant
// check and critical-path extraction over a pre-recorded cell stream —
// the post-processing a -critpath run adds after the program finishes.
func BenchmarkCritPathBuild(b *testing.B) {
	bench.CritPathBuildBench(b)
}

// BenchmarkFlightRecorderCell runs the same contended 2+8 cell with the
// flight recorder detached and attached; the off/on delta is the
// recorder's whole-run overhead.
func BenchmarkFlightRecorderCell(b *testing.B) {
	b.Run("off", bench.FlightRecorderCellBench(false))
	b.Run("on", bench.FlightRecorderCellBench(true))
}

// BenchmarkConfinedMonitorEnterExit runs the same confined-lock loop with
// real thin-lock monitors (off) and with the certified whole-monitor
// elision applied (on); the ns/op metric is per monitor operation and the
// off/on delta is what the escape analysis buys end to end.
func BenchmarkConfinedMonitorEnterExit(b *testing.B) {
	b.Run("off", bench.ConfinedMonitorEnterExitBench(false))
	b.Run("on", bench.ConfinedMonitorEnterExitBench(true))
}

// BenchmarkTierDispatch compares the switch interpreter's per-instruction
// dispatch against fused superinstruction dispatch on the dispatch
// workloads.
func BenchmarkTierDispatch(b *testing.B) {
	for _, p := range bench.TierPrograms {
		for _, tier := range bench.Tiers {
			b.Run(p.Name+"/"+tier.String(), bench.TierDispatchBench(p, tier))
		}
	}
}

// BenchmarkMonitorEnterExit measures an uncontended synchronized section.
func BenchmarkMonitorEnterExit(b *testing.B) {
	rt := core.New(core.Config{Mode: core.Revocation, NoCosts: true})
	m := rt.NewMonitor("m")
	rt.Spawn("t", sched.NormPriority, func(tk *core.Task) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tk.Synchronized(m, func() {})
		}
	})
	if err := rt.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkContextSwitch measures a scheduler round trip between two
// threads.
func BenchmarkContextSwitch(b *testing.B) { bench.ContextSwitchBench(b) }

// BenchmarkInterpInvokeReturn measures one steady-state INVOKE/RETURN
// pair (with its loop) on every tier; allocs/op must be 0.
func BenchmarkInterpInvokeReturn(b *testing.B) {
	for _, tier := range bench.Tiers {
		b.Run(tier.String(), bench.InterpInvokeReturnBench(tier))
	}
}

// ---------------------------------------------------------------------------
// Ablation benches (design choices called out in DESIGN.md).

// BenchmarkAblationProtocols compares the high-priority makespan of every
// lock protocol on the paper's 2+8 workload at 40 % writes.
func BenchmarkAblationProtocols(b *testing.B) {
	for _, proto := range []revoke.Protocol{
		revoke.ProtocolUnmodified, revoke.ProtocolInheritance,
		revoke.ProtocolCeiling, revoke.ProtocolRevocation,
	} {
		b.Run(proto.String(), func(b *testing.B) {
			var span revoke.Ticks
			for i := 0; i < b.N; i++ {
				span = runProtocolCell(b, proto)
			}
			b.ReportMetric(float64(span), "high-span-ticks")
		})
	}
}

func runProtocolCell(b *testing.B, proto revoke.Protocol) revoke.Ticks {
	p := benchParams()
	rt := revoke.NewBaseline(proto, revoke.SchedConfig{Quantum: p.Quantum, Seed: p.Seed})
	buf := rt.Heap().AllocArray(p.BufferLen)
	m := rt.NewMonitor("shared")
	m.Ceiling = revoke.HighPriority
	var highs []*revoke.Task
	body := func(iters int, seed int64) func(*revoke.Task) {
		return func(tk *revoke.Task) {
			rng := rt.Scheduler().Rng()
			for s := 0; s < p.Sections; s++ {
				tk.Sleep(revoke.Ticks(rng.Int63n(int64(2 * p.Quantum))))
				tk.Synchronized(m, func() {
					for i := 0; i < iters; i++ {
						if i%2 == 0 {
							tk.WriteElem(buf, i%p.BufferLen, revoke.Word(i))
						} else {
							tk.ReadElem(buf, i%p.BufferLen)
						}
					}
				})
			}
		}
	}
	for i := 0; i < 2; i++ {
		highs = append(highs, rt.Spawn(fmt.Sprintf("high%d", i), revoke.HighPriority, body(p.HighIters, int64(i))))
	}
	for i := 0; i < 8; i++ {
		rt.Spawn(fmt.Sprintf("low%d", i), revoke.LowPriority, body(p.LowIters, int64(100+i)))
	}
	if err := rt.Run(); err != nil {
		b.Fatal(err)
	}
	start := highs[0].Thread().StartedAt()
	end := highs[0].Thread().EndedAt()
	for _, h := range highs[1:] {
		if s := h.Thread().StartedAt(); s < start {
			start = s
		}
		if e := h.Thread().EndedAt(); e > end {
			end = e
		}
	}
	return end - start
}

func benchParams() bench.Params {
	return bench.Params{
		Sections: 10, LowIters: 1500, HighIters: 300,
		Quantum: 4000, BufferLen: 256, Seed: 20040815,
	}
}

// BenchmarkAblationDetection compares acquire-time vs periodic inversion
// detection.
func BenchmarkAblationDetection(b *testing.B) {
	for _, det := range []core.DetectMode{core.DetectOnAcquire, core.DetectPeriodic, core.DetectBoth} {
		b.Run(det.String(), func(b *testing.B) {
			var span revoke.Ticks
			for i := 0; i < b.N; i++ {
				p := benchParams()
				rt := core.New(core.Config{
					Mode:   core.Revocation,
					Detect: det,
					Sched:  sched.Config{Quantum: p.Quantum, Seed: p.Seed},
				})
				buf := rt.Heap().AllocArray(p.BufferLen)
				m := rt.NewMonitor("m")
				var high *core.Task
				high = rt.Spawn("high", sched.HighPriority, func(tk *core.Task) {
					rng := rt.Scheduler().Rng()
					for s := 0; s < p.Sections; s++ {
						tk.Sleep(revoke.Ticks(rng.Int63n(int64(2 * p.Quantum))))
						tk.Synchronized(m, func() {
							for k := 0; k < p.HighIters; k++ {
								tk.ReadElem(buf, k%p.BufferLen)
							}
						})
					}
				})
				for j := 0; j < 4; j++ {
					rt.Spawn(fmt.Sprintf("low%d", j), sched.LowPriority, func(tk *core.Task) {
						rng := rt.Scheduler().Rng()
						for s := 0; s < p.Sections; s++ {
							tk.Sleep(revoke.Ticks(rng.Int63n(int64(2 * p.Quantum))))
							tk.Synchronized(m, func() {
								for k := 0; k < p.LowIters; k++ {
									tk.WriteElem(buf, k%p.BufferLen, revoke.Word(k))
								}
							})
						}
					})
				}
				if err := rt.Run(); err != nil {
					b.Fatal(err)
				}
				span = high.Thread().EndedAt() - high.Thread().StartedAt()
			}
			b.ReportMetric(float64(span), "high-span-ticks")
		})
	}
}

// BenchmarkBankWorkload runs the realistic multi-lock application under
// every protocol, reporting the high-priority auditors' worst-case latency
// (the figure of merit) alongside wall time.
func BenchmarkBankWorkload(b *testing.B) {
	for _, proto := range []revoke.Protocol{
		revoke.ProtocolUnmodified, revoke.ProtocolInheritance,
		revoke.ProtocolCeiling, revoke.ProtocolRevocation,
	} {
		b.Run(proto.String(), func(b *testing.B) {
			var worst revoke.Ticks
			for i := 0; i < b.N; i++ {
				res, err := bench.RunBank(proto, bench.DefaultBankParams())
				if err != nil {
					b.Fatal(err)
				}
				worst = res.AuditWorst
			}
			b.ReportMetric(float64(worst), "audit-worst-ticks")
		})
	}
}

// BenchmarkCompilerTiers compares the switch interpreter against the
// fused tier on a compute-heavy bytecode loop.
func BenchmarkCompilerTiers(b *testing.B) {
	src := `
static acc = 0
thread t priority 5 run main
method main locals 1 {
    const 2000
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
    return
}
`
	for _, tc := range []struct {
		name string
		tier interp.Tier
	}{{"interpreter", interp.TierExec}, {"opt", interp.TierOpt}} {
		b.Run(tc.name, func(b *testing.B) {
			prog := bytecode.MustAssemble(src)
			for i := 0; i < b.N; i++ {
				rt := core.New(core.Config{Mode: core.Revocation, NoCosts: true})
				if _, err := interp.Run(rt, prog.Clone(), interp.Options{Tier: tc.tier}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationBarrierElision measures the §1.1 optimization: stores
// in methods proven to run outside synchronized sections skip the barrier.
func BenchmarkAblationBarrierElision(b *testing.B) {
	src := `
static acc = 0
thread t priority 5 run main
method main locals 1 {
    const 3000
    store 0
  loop:
    load 0
    ifz done
    load 0
    putstatic acc
    load 0
    const 1
    sub
    store 0
    goto loop
  done:
    return
}
`
	for _, elide := range []bool{false, true} {
		name := "barriers"
		if elide {
			name = "elided"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				prog := bytecode.MustAssemble(src)
				if elide {
					rewrite.ApplyElision(prog, nil)
				}
				rt := core.New(core.Config{Mode: core.Revocation, NoCosts: true})
				if _, err := interp.Run(rt, prog, interp.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationDependencyTracking measures the cost of the §2.2 read
// and write barriers on the benchmark loop.
func BenchmarkAblationDependencyTracking(b *testing.B) {
	for _, track := range []bool{false, true} {
		name := "off"
		if track {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			rt := core.New(core.Config{Mode: core.Revocation, NoCosts: true, TrackDependencies: track})
			buf := rt.Heap().AllocArray(256)
			m := rt.NewMonitor("m")
			rt.Spawn("t", sched.NormPriority, func(tk *core.Task) {
				tk.Synchronized(m, func() {
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if i%2 == 0 {
							tk.WriteElem(buf, i%256, revoke.Word(i))
						} else {
							tk.ReadElem(buf, i%256)
						}
					}
				})
			})
			if err := rt.Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkAblationQueueDiscipline compares the paper's prioritized
// monitor queues against plain FIFO queues on the 2+8 workload — the
// measurement-methodology choice §4 calls out.
func BenchmarkAblationQueueDiscipline(b *testing.B) {
	for _, fifo := range []bool{false, true} {
		name := "prioritized"
		if fifo {
			name = "fifo"
		}
		b.Run(name, func(b *testing.B) {
			var span revoke.Ticks
			for i := 0; i < b.N; i++ {
				p := benchParams()
				rt := core.New(core.Config{
					Mode:              core.Revocation,
					FIFOMonitorQueues: fifo,
					Sched:             sched.Config{Quantum: p.Quantum, Seed: p.Seed},
				})
				buf := rt.Heap().AllocArray(p.BufferLen)
				m := rt.NewMonitor("m")
				var highs []*core.Task
				body := func(iters int) func(*core.Task) {
					return func(tk *core.Task) {
						rng := rt.Scheduler().Rng()
						for s := 0; s < p.Sections; s++ {
							tk.Sleep(revoke.Ticks(rng.Int63n(int64(2 * p.Quantum))))
							tk.Synchronized(m, func() {
								for k := 0; k < iters; k++ {
									tk.ReadElem(buf, k%p.BufferLen)
								}
							})
						}
					}
				}
				for j := 0; j < 2; j++ {
					highs = append(highs, rt.Spawn(fmt.Sprintf("high%d", j), sched.HighPriority, body(p.HighIters)))
				}
				for j := 0; j < 8; j++ {
					rt.Spawn(fmt.Sprintf("low%d", j), sched.LowPriority, body(p.LowIters))
				}
				if err := rt.Run(); err != nil {
					b.Fatal(err)
				}
				start := highs[0].Thread().StartedAt()
				end := highs[0].Thread().EndedAt()
				for _, h := range highs[1:] {
					if s := h.Thread().StartedAt(); s < start {
						start = s
					}
					if e := h.Thread().EndedAt(); e > end {
						end = e
					}
				}
				span = end - start
			}
			b.ReportMetric(float64(span), "high-span-ticks")
		})
	}
}

// BenchmarkYieldPoint measures the per-instruction charge at steady state:
// Task.Step(1) passing a yield point that does not switch.
func BenchmarkYieldPoint(b *testing.B) { bench.StepBench(b) }

// BenchmarkAnalyze measures the static front end as rvmrun -static runs it:
// rewrite.Rewrite, then analysis.Analyze, over every example program per
// iteration.
func BenchmarkAnalyze(b *testing.B) {
	srcs, err := filepath.Glob(filepath.Join("examples", "*", "*.rvm"))
	if err != nil || len(srcs) == 0 {
		b.Fatalf("no example programs: %v", err)
	}
	progs := make([]*bytecode.Program, len(srcs))
	for i, src := range srcs {
		text, err := os.ReadFile(src)
		if err != nil {
			b.Fatal(err)
		}
		if progs[i], err = bytecode.Assemble(string(text)); err != nil {
			b.Fatalf("%s: %v", src, err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range progs {
			q, err := rewrite.Rewrite(p)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := analysis.Analyze(q); err != nil {
				b.Fatal(err)
			}
		}
	}
}
