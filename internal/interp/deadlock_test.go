package interp

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/rewrite"
	"repro/internal/sched"
)

// exampleSources globs every seeded example program, including the
// deadlocking corpus outside examples/bytecode (which stays clean of
// deadlockers so the observability CI jobs can run it end to end).
func exampleSources(t *testing.T) []string {
	t.Helper()
	var srcs []string
	for _, dir := range []string{"bytecode", "racy", "deadlock", "deadlock2", "aliasdl", "confined", "escape", "recdl"} {
		matches, err := filepath.Glob(filepath.Join("..", "..", "examples", dir, "*.rvm"))
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, matches...)
	}
	if len(srcs) < 11 {
		t.Fatalf("found only %d example programs: %v", len(srcs), srcs)
	}
	return srcs
}

// prepareExample runs one example source through the full rvmrun -static
// pipeline: assemble, verify, rewrite, analyze the rewritten program,
// apply certified elision.
func prepareExample(t *testing.T, src string) (*bytecode.Program, *analysis.Facts) {
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
	return prog, facts
}

// TestDynamicDeadlocksSubsetOfStatic is the cross-validation invariant
// between the runtime wait-for-graph detector and the behavioral pass:
// over every example program on every tier, any deadlock the WFG
// observer witnesses at runtime must appear in the static report —
// the program has non-empty Facts.Deadlocks, and every blocked thread's
// stamped acquisition sites are witness positions of the static cycles.
// (The converse is not an invariant: a static may-deadlock need not
// fire on one deterministic schedule.)
func TestDynamicDeadlocksSubsetOfStatic(t *testing.T) {
	for _, src := range exampleSources(t) {
		src := src
		for _, tier := range allTiers {
			tier := tier
			t.Run(filepath.Base(src)+"/"+tier.String(), func(t *testing.T) {
				prog, facts := prepareExample(t, src)

				var cycles [][]core.DeadlockEdge
				rt := core.New(core.Config{
					Mode:              core.Revocation,
					TrackDependencies: true,
					DeadlockDetection: true,
					OnDeadlock: func(cycle []core.DeadlockEdge) {
						cycles = append(cycles, cycle)
					},
					Sched: sched.Config{Quantum: 1000},
				})
				if _, err := Run(rt, prog, Options{
					Rewritten: true,
					Tier:      tier,
					Facts:     facts,
				}); err != nil {
					t.Fatalf("%v tier: %v", tier, err)
				}
				if len(cycles) == 0 {
					return
				}

				// The static side of the inclusion: a witnessed deadlock with
				// no behavioral report would be a soundness hole.
				if len(facts.Deadlocks) == 0 {
					t.Fatalf("runtime witnessed %d deadlock cycles but the behavioral pass reports none", len(cycles))
				}
				staticSites := make(map[string]bool)
				for _, c := range facts.Deadlocks {
					for _, e := range c.Edges {
						staticSites[e.At.String()] = true
						staticSites[e.Outer.String()] = true
					}
				}
				for _, cy := range cycles {
					for _, e := range cy {
						if !staticSites[e.WaitSite] {
							t.Errorf("dynamic wait site %s (task %s waiting for %s) is not a static witness: %v",
								e.WaitSite, e.Task, e.WaitsFor, staticSites)
						}
						if !staticSites[e.HoldSite] {
							t.Errorf("dynamic hold site %s (task %s holding %s) is not a static witness: %v",
								e.HoldSite, e.Task, e.Holds, staticSites)
						}
					}
				}
			})
		}
	}
}

// TestDeadlockExamplesWitnessed pins that the seeded deadlock examples
// actually deadlock at runtime on the deterministic scheduler — keeping
// the subset test above non-vacuous — and that the revocation VM's own
// detector then breaks every cycle so the run completes. recdl is the
// recursion-only shape: its cycle exists statically only through the
// recursive contract inference, and dynamically only past recursion
// depth one.
func TestDeadlockExamplesWitnessed(t *testing.T) {
	for _, name := range []string{"deadlock/deadlock.rvm", "deadlock2/deadlock2.rvm", "aliasdl/aliasdl.rvm", "recdl/recdl.rvm"} {
		name := name
		t.Run(filepath.Base(name), func(t *testing.T) {
			prog, facts := prepareExample(t, filepath.Join("..", "..", "examples", name))
			var cycles [][]core.DeadlockEdge
			rt := core.New(core.Config{
				Mode:              core.Revocation,
				TrackDependencies: true,
				DeadlockDetection: true,
				OnDeadlock:        func(cycle []core.DeadlockEdge) { cycles = append(cycles, cycle) },
				Sched:             sched.Config{Quantum: 1000},
			})
			if _, err := Run(rt, prog, Options{Rewritten: true, Facts: facts}); err != nil {
				t.Fatalf("run: %v", err)
			}
			if len(cycles) == 0 {
				t.Fatal("no runtime deadlock witnessed")
			}
			if len(cycles[0]) != 2 {
				t.Fatalf("first cycle has %d threads, want 2: %+v", len(cycles[0]), cycles[0])
			}
			if rt.Stats().DeadlocksBroken == 0 {
				t.Error("revocation VM did not break the witnessed deadlock")
			}
		})
	}
}

// rawInSource reports the positions that are raw stores in the program
// BEFORE certified elision — hand-seeded barrier bypasses (the racy
// volbypass example) rather than compiler elisions. The audit property
// governs only what ApplyStaticElision introduced.
func rawInSource(t *testing.T, src string) map[string]bool {
	t.Helper()
	text, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := rewrite.Rewrite(bytecode.MustAssemble(string(text)))
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]bool)
	for _, m := range prog.Methods {
		for pc, in := range m.Code {
			switch in.Op {
			case bytecode.PUTFIELDRAW, bytecode.PUTSTATICRAW, bytecode.ASTORERAW:
				out[analysis.Pos{Method: m.Name, PC: pc}.String()] = true
			}
		}
	}
	return out
}

// TestOptElisionsAllCertified is the certificate-audit property: every
// write barrier the opt tier actually skips and every SAVESTACK it
// compiles to a no-op carries a matching certificate. The example
// corpus exercises barrier elision; a spill-heavy fixture (the
// TestOptSavestackElision shape) exercises dead-SAVESTACK elision so
// neither half of the property is vacuous.
func TestOptElisionsAllCertified(t *testing.T) {
	audited := make(map[analysis.CertKind]int)
	runAudited := func(t *testing.T, prog *bytecode.Program, facts *analysis.Facts, seededRaw map[string]bool) {
		t.Helper()
		rt := core.New(core.Config{
			Mode:              core.Revocation,
			TrackDependencies: true,
			DeadlockDetection: true,
			Sched:             sched.Config{Quantum: 1000},
		})
		if _, err := Run(rt, prog, Options{
			Rewritten: true,
			Tier:      TierOpt,
			Facts:     facts,
			ElisionAudit: func(kind analysis.CertKind, method string, pc int) {
				if kind == analysis.CertElideBarrier && seededRaw[analysis.Pos{Method: method, PC: pc}.String()] {
					return // hand-written .raw store, not an elision
				}
				audited[kind]++
				if facts.CertAt(method, pc, kind) == nil {
					t.Errorf("elision %s at %s@%d executed without a certificate", kind, method, pc)
				}
			},
		}); err != nil {
			t.Fatalf("opt tier: %v", err)
		}
	}

	for _, src := range exampleSources(t) {
		src := src
		t.Run(filepath.Base(src), func(t *testing.T) {
			prog, facts := prepareExample(t, src)
			runAudited(t, prog, facts, rawInSource(t, src))
		})
	}

	t.Run("savestack_fixture", func(t *testing.T) {
		prog, err := rewrite.Rewrite(bytecode.MustAssemble(`
class Lock {
    unused
}
static s = 0
thread main priority 5 run main
method main locals 0 {
    invoke spill
    pop
    return
}
method spill locals 1 returns {
    newobj Lock
    store 0
    const 10
    sync 0 {
        const 42
        native print 1
        pop
    }
    const 100
    add
    ireturn
}
`))
		if err != nil {
			t.Fatal(err)
		}
		facts, err := analysis.Analyze(prog)
		if err != nil {
			t.Fatal(err)
		}
		rewrite.ApplyStaticElision(prog, facts)
		runAudited(t, prog, facts, nil)
	})

	if audited[analysis.CertElideBarrier] == 0 {
		t.Error("audit vacuous: no elided write barrier executed")
	}
	if audited[analysis.CertDeadSavestack] == 0 {
		t.Error("audit vacuous: no dead-SAVESTACK elision executed")
	}
	if audited[analysis.CertConfined] == 0 {
		t.Error("audit vacuous: no confined-monitor elision executed (examples/confined should exercise it)")
	}
	t.Logf("audited elisions: %v", audited)
}

// TestNewEnvRejectsTamperedEscapeFacts covers the two certificate kinds
// the escape pass issues. Staling a confined-monitor certificate (editing
// the program so the proved enter/exit bracketing no longer re-derives)
// and forging a race-free obligation (erasing the race findings that
// excluded a slot) must both fail the load gate on every tier.
func TestNewEnvRejectsTamperedEscapeFacts(t *testing.T) {
	rejectAll := func(t *testing.T, prog *bytecode.Program, facts *analysis.Facts) {
		t.Helper()
		for _, tier := range allTiers {
			rt := core.New(core.Config{Mode: core.Revocation, Sched: sched.Config{Quantum: 1000}})
			_, err := NewEnv(rt, prog, Options{Rewritten: true, Tier: tier, Facts: facts})
			if err == nil {
				t.Fatalf("%v tier: tampered facts accepted", tier)
			}
			if !strings.Contains(err.Error(), "certificate") {
				t.Fatalf("%v tier: error %v does not name the certificate gate", tier, err)
			}
		}
	}

	t.Run("stale_confined_cert", func(t *testing.T) {
		prog, facts := prepareExample(t, filepath.Join("..", "..", "examples", "confined", "confined.rvm"))
		// Break the bracketing proof behind one issued confined-monitor
		// certificate: swap an in-section STORE for a WAIT (identical
		// stack effect and monitor balance, so the bytecode still
		// verifies), which disqualifies the section from whole-monitor
		// elision — the re-derivation finds no clean pairing and the
		// issued certificate is stale.
		tampered := false
		for _, m := range prog.Methods {
			for pc := range m.Code {
				if m.Code[pc].Op != bytecode.MONITORENTER || tampered {
					continue
				}
				exits, ok := facts.ConfinedExits(m.Name, pc)
				if !ok || len(exits) == 0 {
					continue
				}
				for tp := pc + 1; tp < exits[0]; tp++ {
					if m.Code[tp].Op == bytecode.STORE {
						m.Code[tp] = bytecode.Instr{Op: bytecode.WAIT}
						tampered = true
						break
					}
				}
			}
		}
		if !tampered {
			t.Fatal("confined example carries no whole-monitor elision plan")
		}
		rejectAll(t, prog, facts)
	})

	t.Run("forged_race_free_obligation", func(t *testing.T) {
		prog, facts := prepareExample(t, filepath.Join("..", "..", "examples", "racy", "counter.rvm"))
		if len(facts.Races) == 0 {
			t.Fatal("counter example reports no candidate races")
		}
		// Erasing the findings turns the racy slot into a race-free
		// obligation that no certificate discharges.
		facts.Races = nil
		rejectAll(t, prog, facts)
	})
}

// TestNewEnvRejectsTamperedFacts: handing the interpreter a fact set
// whose public fields were altered after analysis is a hard load-time
// error on every tier — the program never starts.
func TestNewEnvRejectsTamperedFacts(t *testing.T) {
	prog, facts := prepareExample(t, filepath.Join("..", "..", "examples", "bytecode", "lockorder.rvm"))
	var flipped *analysis.Section
	for i := range facts.Sections {
		if !facts.Sections[i].NonRevocable {
			flipped = facts.Sections[i]
			break
		}
	}
	if flipped == nil {
		t.Fatal("no revocable section in lockorder.rvm")
	}
	flipped.NonRevocable = true
	for _, tier := range allTiers {
		rt := core.New(core.Config{Mode: core.Revocation, Sched: sched.Config{Quantum: 1000}})
		_, err := NewEnv(rt, prog, Options{Rewritten: true, Tier: tier, Facts: facts})
		if err == nil {
			t.Fatalf("%v tier: tampered facts accepted", tier)
		}
		if !strings.Contains(err.Error(), "no trigger") && !strings.Contains(err.Error(), "certificate") {
			t.Fatalf("%v tier: error %v does not name the certificate gate", tier, err)
		}
	}
}
