package interp

import (
	"bytes"
	"path/filepath"
	"testing"

	"repro/internal/causal"
	"repro/internal/core"
	"repro/internal/fr"
	"repro/internal/sched"
	"repro/internal/trace"
)

// runCausal executes one example on one tier with a trace recorder
// attached (plus any extra sink) and an optional perturbation, returning
// the recorded stream and the run's complete final state.
func runCausal(t *testing.T, src string, tier Tier, p *core.Perturb, extra trace.Sink) ([]trace.Event, tierFinalState) {
	t.Helper()
	prog, facts := prepareExample(t, src)
	rec := &trace.Recorder{}
	var sink trace.Sink = rec
	if extra != nil {
		sink = trace.Multi{rec, extra}
	}
	rt := core.New(core.Config{
		Mode:              core.Revocation,
		TrackDependencies: true,
		DeadlockDetection: true,
		Observer:          sink,
		Perturb:           p,
		Sched:             sched.Config{Quantum: 1000, SwitchCost: 3},
	})
	env, err := Run(rt, prog, Options{
		Rewritten: true,
		Tier:      tier,
		Facts:     facts,
	})
	if err != nil {
		t.Fatalf("%v tier: %v", tier, err)
	}
	return rec.Events(), finalState(rt, env)
}

// TestCriticalPathEqualsClock is the causal package's grand invariant,
// checked over every example program (including the deadlocking corpus —
// revocation resolves those runs) on both tiers: the happens-before
// DAG built from the live trace stream has every timeline point's
// longest-path distance equal to its timestamp, the longest path equals
// the final virtual clock EXACTLY, and the extracted critical path tiles
// [0, clock] gaplessly.
func TestCriticalPathEqualsClock(t *testing.T) {
	for _, src := range exampleSources(t) {
		src := src
		t.Run(filepath.Base(src), func(t *testing.T) {
			for _, tier := range allTiers {
				events, st := runCausal(t, src, tier, nil, nil)
				g, err := causal.Build(events, causal.Options{})
				if err != nil {
					t.Fatalf("%v: Build: %v", tier, err)
				}
				if err := g.CheckInvariant(); err != nil {
					t.Fatalf("%v: %v", tier, err)
				}
				if int64(g.FinalClock) != st.clock {
					t.Fatalf("%v: DAG final clock %d != runtime clock %d", tier, g.FinalClock, st.clock)
				}
				a, err := g.CriticalPath()
				if err != nil {
					t.Fatalf("%v: CriticalPath: %v", tier, err)
				}
				var pathLen int64
				for _, p := range a.Pieces {
					pathLen += int64(p.To - p.From)
				}
				if pathLen != st.clock {
					t.Fatalf("%v: critical path %d ticks != final clock %d", tier, pathLen, st.clock)
				}
				// Per-class totals re-partition the makespan exactly.
				var classSum int64
				for c := causal.Class(0); c < causal.NumClasses; c++ {
					classSum += int64(a.ClassTotals[c])
				}
				if classSum != st.clock {
					t.Fatalf("%v: class totals sum %d != final clock %d", tier, classSum, st.clock)
				}
			}
		})
	}
}

// TestWhatIfZeroPerturbationIdentity pins the what-if engine's control
// property on every example and tier: re-executing under an empty
// core.Perturb is indistinguishable from the baseline — same final
// clock, same complete Stats, same heap fingerprint and print stream.
func TestWhatIfZeroPerturbationIdentity(t *testing.T) {
	for _, src := range exampleSources(t) {
		src := src
		t.Run(filepath.Base(src), func(t *testing.T) {
			for _, tier := range allTiers {
				_, base := runCausal(t, src, tier, nil, nil)
				_, replay := runCausal(t, src, tier, &core.Perturb{}, nil)
				if replay.clock != base.clock {
					t.Errorf("%v: zero-perturbation clock %d != baseline %d", tier, replay.clock, base.clock)
				}
				if replay.stats != base.stats {
					t.Errorf("%v: zero-perturbation stats diverge:\n base:   %+v\n replay: %+v", tier, base.stats, replay.stats)
				}
				if replay.heap != base.heap {
					t.Errorf("%v: zero-perturbation heap diverges:\n base:\n%s replay:\n%s", tier, base.heap, replay.heap)
				}
			}
		})
	}
}

// TestDumpDAGMatchesLive pins that the DAG built from a flight-recorder
// dump equals the DAG built from the live stream when the ring did not
// wrap: causal.Build is a pure function of the event slice, and the fr
// codec round-trips every field the builder consumes (including the
// PR 10 enrichments: spawner, switch cost, sleep and idle payloads).
func TestDumpDAGMatchesLive(t *testing.T) {
	src := filepath.Join("..", "..", "examples", "bytecode", "inversion.rvm")
	frRec := fr.New(fr.Config{Size: 4 << 20})
	events, _ := runCausal(t, src, TierExec, nil, frRec)
	if frRec.Wrapped() {
		t.Fatalf("ring wrapped (%d lost); enlarge Size so the streams are comparable", frRec.Lost())
	}
	dump, err := frRec.Snapshot("test")
	if err != nil {
		t.Fatal(err)
	}
	if len(dump.Events) != len(events) {
		t.Fatalf("dump has %d events, live stream %d", len(dump.Events), len(events))
	}
	for i := range events {
		if dump.Events[i] != events[i] {
			t.Fatalf("event %d round-trip mismatch:\n live: %+v\n dump: %+v", i, events[i], dump.Events[i])
		}
	}
	report := func(evs []trace.Event) string {
		g, err := causal.Build(evs, causal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := g.CheckInvariant(); err != nil {
			t.Fatal(err)
		}
		a, err := g.CriticalPath()
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		causal.RenderReport(&b, g, a, 10)
		return b.String()
	}
	live, fromDump := report(events), report(dump.Events)
	if live != fromDump {
		t.Fatalf("live and dump attributions differ:\n--- live ---\n%s--- dump ---\n%s", live, fromDump)
	}
}
