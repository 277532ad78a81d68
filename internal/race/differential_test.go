package race_test

import (
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/analysis"
	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/race"
	"repro/internal/rewrite"
	"repro/internal/sched"
)

// exampleCorpus globs the non-deadlocking example programs (the
// deadlocking corpus needs the deterministic revocation schedule and is
// cross-validated by the interp-side differential tests instead).
func exampleCorpus(t *testing.T) []string {
	t.Helper()
	var srcs []string
	for _, dir := range []string{"bytecode", "racy", "confined", "escape"} {
		matches, err := filepath.Glob(filepath.Join("..", "..", "examples", dir, "*.rvm"))
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, matches...)
	}
	if len(srcs) < 7 {
		t.Fatalf("found only %d example programs: %v", len(srcs), srcs)
	}
	return srcs
}

// TestDifferentialDynamicSubsetOfStatic cross-validates the two engines
// over every example program: any race the dynamic sanitizer observes at
// runtime must involve a slot the static lockset pass already named a
// candidate (race or volatile-bypass). The static pass over-approximates
// behavior (all interleavings) while the dynamic pass sees one schedule,
// so dynamic ⊆ static is the soundness contract between them; a violation
// means the lockset analysis wrongly proved a racing slot protected.
func TestDifferentialDynamicSubsetOfStatic(t *testing.T) {
	for _, src := range exampleCorpus(t) {
		for _, tier := range []interp.Tier{interp.TierExec, interp.TierOpt} {
			src, tier := src, tier
			name := filepath.Base(src) + "/" + tier.String()
			t.Run(name, func(t *testing.T) {
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
				// Analyze the program the VM executes (post-rewrite), exactly
				// as rvmrun -static does, so pcs and slots line up.
				facts, err := analysis.Analyze(prog)
				if err != nil {
					t.Fatal(err)
				}
				static := facts.RaceSlots()

				detector := race.New()
				rt := core.New(core.Config{
					Mode:              core.Revocation,
					TrackDependencies: true,
					DeadlockDetection: true,
					Race:              detector,
					Sched:             sched.Config{Quantum: 1000},
				})
				if _, err := interp.Run(rt, prog, interp.Options{
					Rewritten: true,
					Tier:      tier,
					Out:       io.Discard,
				}); err != nil {
					t.Fatal(err)
				}
				for _, r := range detector.Finalize() {
					if !static[r.Slot] {
						t.Errorf("dynamic race on %s not in static candidate set %v\n  report: %v",
							r.Slot, keys(static), r)
					}
				}
			})
		}
	}
}

// TestCertifiedSkipPreservesReports is the soundness property of the
// certificate-armed detector: loading the analysis's race-free
// certificates must only remove work, never reports. Over every example
// on every tier, the report set with certificates loaded is identical to
// the baseline's — a certified slot that produced a report would mean the
// static pass wrongly proved it race-free. The confined example keeps the
// property non-vacuous: its certified slot is accessed in the hot loop,
// so the armed detector must actually skip checks there.
func TestCertifiedSkipPreservesReports(t *testing.T) {
	sawSkips := false
	for _, src := range exampleCorpus(t) {
		for _, tier := range []interp.Tier{interp.TierExec, interp.TierOpt} {
			src, tier := src, tier
			t.Run(filepath.Base(src)+"/"+tier.String(), func(t *testing.T) {
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

				runOnce := func(certified bool) ([]race.Report, int64) {
					detector := race.New()
					if certified {
						detector.SetCertifiedRaceFree(facts.RaceFreeSlotNames())
					}
					rt := core.New(core.Config{
						Mode:              core.Revocation,
						TrackDependencies: true,
						DeadlockDetection: true,
						Race:              detector,
						Sched:             sched.Config{Quantum: 1000},
					})
					if _, err := interp.Run(rt, prog, interp.Options{
						Rewritten: true,
						Tier:      tier,
						Out:       io.Discard,
					}); err != nil {
						t.Fatal(err)
					}
					return detector.Finalize(), detector.ChecksSkipped()
				}

				baseline, noSkips := runOnce(false)
				armed, skips := runOnce(true)
				if noSkips != 0 {
					t.Errorf("unarmed detector skipped %d checks", noSkips)
				}
				if skips > 0 {
					sawSkips = true
				}
				baseSlots, armedSlots := map[string]int{}, map[string]int{}
				for _, r := range baseline {
					baseSlots[r.Slot]++
				}
				for _, r := range armed {
					armedSlots[r.Slot]++
				}
				if len(baseSlots) != len(armedSlots) {
					t.Fatalf("certificates changed the report set: baseline %v, armed %v", baseSlots, armedSlots)
				}
				for slot, n := range baseSlots {
					if armedSlots[slot] != n {
						t.Errorf("certificates changed reports on %s: baseline %d, armed %d", slot, n, armedSlots[slot])
					}
				}
				for slot := range facts.RaceFreeSlotNames() {
					if baseSlots[slot] != 0 {
						t.Errorf("certified slot %s produced a dynamic report — static race-free proof is wrong", slot)
					}
				}
			})
		}
	}
	if !sawSkips {
		t.Error("property vacuous: no run skipped any certified checks")
	}
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
