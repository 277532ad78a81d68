package interp

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
)

var update = flag.Bool("update", false, "rewrite golden files")

// oracleGolden is the committed equivalence oracle: the final state of
// every example program on every tier.
const oracleGolden = "testdata/oracle.golden"

// oracleSources lists the programs the oracle covers: every example
// program and the frame-reuse hazard programs under testdata/hazards.
func oracleSources(t *testing.T) []string {
	t.Helper()
	examples, err := filepath.Glob(filepath.Join("..", "..", "examples", "*", "*.rvm"))
	if err != nil {
		t.Fatal(err)
	}
	if len(examples) < 13 {
		t.Fatalf("found only %d example programs: %v", len(examples), examples)
	}
	return append(examples, hazardSources(t)...)
}

// hazardSources lists the frame-reuse hazard programs.
func hazardSources(t *testing.T) []string {
	t.Helper()
	srcs, err := filepath.Glob(filepath.Join("testdata", "hazards", "*.rvm"))
	if err != nil {
		t.Fatal(err)
	}
	if len(srcs) < 4 {
		t.Fatalf("found only %d hazard programs: %v", len(srcs), srcs)
	}
	return srcs
}

// runOracle runs one program on one tier through the rvmrun -static
// pipeline.
func runOracle(t *testing.T, src string, tier Tier) (*core.Runtime, *Env) {
	t.Helper()
	prog, facts := prepareExample(t, src)
	rt := core.New(core.Config{
		Mode:              core.Revocation,
		TrackDependencies: true,
		DeadlockDetection: true,
		Sched:             sched.Config{Quantum: 1000, SwitchCost: 3},
	})
	env, err := Run(rt, prog, Options{Rewritten: true, Tier: tier, Facts: facts})
	if err != nil {
		t.Fatalf("%s %v tier: %v", src, tier, err)
	}
	return rt, env
}

// renderOracle runs every oracle program on every tier and renders each
// run's final clock, complete Stats, per-tier method counts, heap
// fingerprint and printed output.
func renderOracle(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	for _, src := range oracleSources(t) {
		for _, tier := range allTiers {
			rt, env := runOracle(t, src, tier)
			st := finalState(rt, env)
			stats, err := json.Marshal(st.stats)
			if err != nil {
				t.Fatal(err)
			}
			execN, thrN, optN := env.TierCounts()
			fmt.Fprintf(&b, "== %s tier=%v\nclock %d\nstats %s\ntiers exec=%d threaded=%d opt=%d\n%s",
				filepath.ToSlash(strings.TrimPrefix(src, filepath.Join("..", "..")+string(filepath.Separator))),
				tier, st.clock, stats, execN, thrN, optN, st.heap)
		}
	}
	return b.String()
}

// TestOracleGolden pins the final state of every example × tier against
// a committed file. TestTierEquivalenceAllExamples compares tiers with each
// other only, so a change that breaks every tier the same way passes it;
// it cannot pass this one. Run with -update after an intentional change to
// the programs' behaviour.
func TestOracleGolden(t *testing.T) {
	got := renderOracle(t)
	if *update {
		if err := os.WriteFile(oracleGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(oracleGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("oracle diverges at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("oracle length differs: got %d lines, want %d", len(gl), len(wl))
}
