package interp

import (
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/prof"
	"repro/internal/rewrite"
	"repro/internal/sched"
)

// profTotals runs one example under the profiler on one tier and returns
// the dimension totals plus the runtime's final clock and wasted ticks.
func profTotals(t *testing.T, src string, tier Tier) ([prof.NumDims]int64, int64, int64) {
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
	p := prof.New()
	rt := core.New(core.Config{
		Mode:              core.Revocation,
		TrackDependencies: true,
		DeadlockDetection: true,
		Profiler:          p,
		// A nonzero switch cost so the sched dimension participates in the
		// partition, not just idle jumps.
		Sched: sched.Config{Quantum: 1000, SwitchCost: 3},
	})
	if _, err := Run(rt, prog, Options{
		Rewritten: true,
		Tier:      tier,
		Out:       io.Discard,
	}); err != nil {
		t.Fatal(err)
	}
	var totals [prof.NumDims]int64
	for _, d := range prof.Dims() {
		totals[d] = p.Total(d)
	}
	return totals, int64(rt.Now()), int64(rt.Stats().WastedTicks)
}

// TestProfilerPartitionsVirtualTime is the profiler's grand invariant,
// checked over every example program on both execution tiers:
//
//   - work + waste + sched ticks sum EXACTLY to the run's final virtual
//     clock — every charged tick is attributed, none twice;
//   - the waste dimension reconciles EXACTLY with core.Stats.WastedTicks —
//     the profiler's rollback reclassification and the runtime's CPU-delta
//     accounting agree tick for tick;
//   - both tiers attribute identically (the per-constituent stamps in
//     fused superinstructions mirror exec's per-instruction stamps).
//
// Block is deliberately outside the sum: on the uniprocessor, parked time
// overlaps other threads' execution (overlay accounting, like Go's block
// profile).
func TestProfilerPartitionsVirtualTime(t *testing.T) {
	var srcs []string
	for _, dir := range []string{"bytecode", "racy"} {
		matches, err := filepath.Glob(filepath.Join("..", "..", "examples", dir, "*.rvm"))
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, matches...)
	}
	if len(srcs) < 5 {
		t.Fatalf("found only %d example programs: %v", len(srcs), srcs)
	}

	for _, src := range srcs {
		src := src
		t.Run(filepath.Base(src), func(t *testing.T) {
			var tierTotals [3][prof.NumDims]int64
			for ti, tier := range allTiers {
				totals, now, wasted := profTotals(t, src, tier)
				tierTotals[ti] = totals
				if sum := totals[prof.Work] + totals[prof.Waste] + totals[prof.Sched]; sum != now {
					t.Errorf("%v: work %d + waste %d + sched %d = %d, want final clock %d",
						tier, totals[prof.Work], totals[prof.Waste], totals[prof.Sched], sum, now)
				}
				if totals[prof.Waste] != wasted {
					t.Errorf("%v: profiled waste %d != Stats.WastedTicks %d",
						tier, totals[prof.Waste], wasted)
				}
				if totals[prof.Block] < 0 {
					t.Errorf("%v: negative block total %d", tier, totals[prof.Block])
				}
			}
			for ti, tier := range allTiers[1:] {
				if tierTotals[ti+1] != tierTotals[0] {
					t.Errorf("tiers disagree: exec %v, %v %v", tierTotals[0], tier, tierTotals[ti+1])
				}
			}
		})
	}
}

// TestProfilerSeesContention pins that the canonical inversion example
// produces a nonzero block profile (the high-priority thread parks on the
// shared monitor) and a nonzero waste profile (its revocation rolls the
// low-priority holder back).
func TestProfilerSeesContention(t *testing.T) {
	totals, _, wasted := profTotals(t, filepath.Join("..", "..", "examples", "bytecode", "inversion.rvm"), TierExec)
	if totals[prof.Block] == 0 {
		t.Error("inversion example blocked no ticks")
	}
	if totals[prof.Waste] == 0 || wasted == 0 {
		t.Errorf("inversion example wasted no ticks (profiled %d, stats %d)", totals[prof.Waste], wasted)
	}
}
