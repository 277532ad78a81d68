package main

import (
	"bytes"
	"math/rand"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/interp"
)

// cheapCell is the least expensive grid cell (8+2, short high loop, 0%
// writes) on the given VM.
func cheapCell(t *testing.T, modified bool) int {
	t.Helper()
	for in, c := range cellGrid() {
		if c.High == 8 && c.ShortHigh && c.WritePct == 0 && c.Modified == modified {
			return in
		}
	}
	t.Fatal("no cheap cell in the grid")
	return 0
}

// TestOneTickDigestMismatchFails: a request whose virtual clock is one
// tick off its reference is counted as failed, on paper-cells (reference:
// the input's first run) and on an rvm workload (reference: the exec tier).
func TestOneTickDigestMismatchFails(t *testing.T) {
	for _, name := range []string{"paper-cells", "rvm-compute"} {
		t.Run(name, func(t *testing.T) {
			w, err := newWorkload(name, 7)
			if err != nil {
				t.Fatal(err)
			}
			in := 0
			if name == "paper-cells" {
				in = cheapCell(t, true)
			}
			var res loopResult
			w.request(in, nil, &res) // honest run
			if res.failed != 0 {
				t.Fatalf("honest request failed: %v", res.failures)
			}
			honest := w.exec
			w.exec = func(in int, sp *spanRec, root int) (outcome, error) {
				o, err := honest(in, sp, root)
				o.Clock++
				return o, err
			}
			w.request(in, nil, &res)
			if res.attempted != 2 || res.failed != 1 {
				t.Fatalf("attempted %d failed %d, want 2 and 1", res.attempted, res.failed)
			}
			if !strings.Contains(res.failures[0], "digest") {
				t.Errorf("failure %q does not name the digest", res.failures[0])
			}
		})
	}
}

// TestBrokenBalanceTotalFails: a sync program whose balances no longer sum
// to accounts × initial balance fails its known-answer check, and the
// request is counted as failed.
func TestBrokenBalanceTotalFails(t *testing.T) {
	p := genSync(rand.New(rand.NewSource(3)), "broken")
	w := &workload{
		name:   "broken",
		inputs: 1,
		label:  func(int) string { return p.Name },
		ref:    make([]uint64, 1),
		refErr: make([]error, 1),
		exec: func(_ int, sp *spanRec, root int) (outcome, error) {
			return runProgram(&p, pipelineOpts{tier: interp.TierOpt, afterRun: func(env *interp.Env) {
				ref, err := staticValue(env, "acct0")
				if err != nil {
					t.Error(err)
					return
				}
				obj, _ := env.Object(ref)
				obj.Set(0, obj.Get(0)+1)
			}}, sp, root)
		},
	}
	var res loopResult
	w.request(0, nil, &res)
	if res.attempted != 1 || res.failed != 1 {
		t.Fatalf("attempted %d failed %d, want 1 and 1", res.attempted, res.failed)
	}
	if !strings.Contains(res.failures[0], "balances sum to") {
		t.Errorf("failure %q does not name the balance total", res.failures[0])
	}
}

// TestGeneratedProgramsAgreeAcrossTiers: every generated program passes its
// known-answer check on all three tiers, with identical digests.
func TestGeneratedProgramsAgreeAcrossTiers(t *testing.T) {
	gens := map[string]func(*rand.Rand, string) program{"sync": genSync, "compute": genCompute}
	for kind, gen := range gens {
		for seed := int64(1); seed <= 3; seed++ {
			p := gen(rand.New(rand.NewSource(seed)), kind)
			var want uint64
			for _, tier := range []interp.Tier{interp.TierExec, interp.TierThreaded, interp.TierOpt} {
				o, err := runProgram(&p, pipelineOpts{tier: tier}, nil, -1)
				if err != nil {
					t.Fatalf("%s seed %d tier %v: %v", kind, seed, tier, err)
				}
				if tier == interp.TierExec {
					want = o.digest()
				} else if d := o.digest(); d != want {
					t.Errorf("%s seed %d: tier %v digest %016x, exec %016x", kind, seed, tier, d, want)
				}
				if kind == "sync" && o.Stats.Rollbacks == 0 {
					t.Errorf("%s seed %d tier %v: no rollbacks, so no inversion window was exercised", kind, seed, tier)
				}
			}
		}
	}
}

// TestNestedRollbackDefect pins a revocation-VM defect that an earlier
// rvm-sync generator hit on a few generated programs. When its transfers
// nested the credit account's section inside the debit account's, a thread
// whose inner section had been rolled back and re-executed panicked with
// "rollback escaped every scope" once its outer section was revoked too.
// testdata/nested_rollback.rvm is one such program; it fails on every tier.
// The workload now uses the sequential sections of examples/bank. When this
// test fails, the defect is fixed, and nested transfers can return to the
// workload.
func TestNestedRollbackDefect(t *testing.T) {
	src, err := os.ReadFile("testdata/nested_rollback.rvm")
	if err != nil {
		t.Fatal(err)
	}
	p := program{Name: "nested_rollback", Src: string(src), check: func(*interp.Env) error { return nil }}
	for _, tier := range []interp.Tier{interp.TierExec, interp.TierThreaded, interp.TierOpt} {
		_, err := runProgram(&p, pipelineOpts{tier: tier}, nil, -1)
		if err == nil || !strings.Contains(err.Error(), "rollback escaped every scope") {
			t.Errorf("tier %v: got %v, want the nested-rollback panic; if the VM defect is fixed, restore nested transfers in genSync and delete this test", tier, err)
		}
	}
}

// TestRecorderDoesNotPerturb: rvm-sync-fr runs rvm-sync's programs with a
// flight recorder attached and must reproduce their digests exactly.
func TestRecorderDoesNotPerturb(t *testing.T) {
	p := genSync(rand.New(rand.NewSource(5)), "fr")
	bare, err := runProgram(&p, pipelineOpts{tier: interp.TierOpt}, nil, -1)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := runProgram(&p, pipelineOpts{tier: interp.TierOpt, recorder: true}, nil, -1)
	if err != nil {
		t.Fatal(err)
	}
	if bare.digest() != rec.digest() {
		t.Errorf("recorder changed the digest: %016x vs %016x", rec.digest(), bare.digest())
	}
	if rec.FREvents == 0 {
		t.Error("recorder saw no events")
	}
}

// TestPinnedReferences: the default seed's exec-tier references and a cell
// reproduce the digests pinned in pinned.json.
func TestPinnedReferences(t *testing.T) {
	for _, name := range []string{"rvm-sync", "rvm-compute"} {
		w, err := newWorkload(name, defaultSeed)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.pin(); err != nil {
			t.Fatal(err)
		}
		for in := range w.ref {
			if w.refErr[in] != nil || w.ref[in] != w.pinned[in] {
				t.Errorf("%s input %d: reference %016x (%v), pinned %016x", name, in, w.ref[in], w.refErr[in], w.pinned[in])
			}
		}
	}
	w, err := newWorkload("paper-cells", defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.pin(); err != nil {
		t.Fatal(err)
	}
	var res loopResult
	w.request(cheapCell(t, true), nil, &res)
	if res.failed != 0 {
		t.Errorf("pinned cell failed: %v", res.failures)
	}
}

// TestCellParamsProvenance: the cell constants copied into this benchmark
// still equal internal/bench's medium scale. A failure means internal/bench
// changed; the benchmark's workload deliberately does not follow it.
func TestCellParamsProvenance(t *testing.T) {
	for _, c := range cellGrid() {
		p := bench.CellParams(bench.ScaleMedium, c.ShortHigh, bench.Mix{High: c.High, Low: c.Low}, c.WritePct)
		p.DefaultCosts()
		got := [...]int64{cellSections, cellLowIters, int64(c.highIters()), cellBufferLen, cellCostRW, cellCostRW, cellQuantum, 1, 1, 1}
		want := [...]int64{int64(p.Sections), int64(p.LowIters), int64(p.HighIters), int64(p.BufferLen), int64(p.CostRead), int64(p.CostWrite),
			int64(p.Quantum), int64(p.PauseMult), int64(p.CostLogEntry), int64(p.CostUndoEntry)}
		if got != want || !p.TrackDeps {
			t.Errorf("cell %v: benchmark %v, internal/bench %v (TrackDeps %v)", c, got, want, p.TrackDeps)
		}
	}
}

// TestCPUShares decodes a real CPU profile of core work.
func TestCPUShares(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler unavailable:", err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		if _, err := probeBarrier(core.Revocation, 100000, true); err != nil {
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	shares, samples, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if samples == 0 {
		t.Skip("profile has no samples")
	}
	var sum float64
	for _, b := range cpuBuckets {
		sum += shares[b]
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("shares sum to %v", sum)
	}
	if shares["core"] == 0 && shares["simtime"] == 0 && shares["sched"] == 0 {
		t.Errorf("no runtime-layer samples: %v", shares)
	}
}

// TestSelfTime: a span's self time excludes its children.
func TestSelfTime(t *testing.T) {
	r := &spanRec{spans: []span{
		{Name: "request", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 40, End: 90, Parent: 0},
	}}
	lt := r.layerTimes()
	if lt["request"].TotalNs != 100 || lt["request"].SelfNs != 30 || lt["b"].SelfNs != 50 {
		t.Errorf("layer times %+v", lt)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if q := quantile(xs, 0.5); q != 3 {
		t.Errorf("median %v", q)
	}
	if q := quantile(xs, 0.9); q < 4.59 || q > 4.61 {
		t.Errorf("p90 %v", q)
	}
}
