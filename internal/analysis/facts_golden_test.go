package analysis_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/bytecode"
	"repro/internal/rewrite"
)

var update = flag.Bool("update", false, "rewrite golden files")

// factsGolden pins the whole front end's output: every fact the analysis
// derives for every example and frame-reuse hazard program, as rvmrun
// -static analyzes them (after rewrite.Rewrite).
const factsGolden = "testdata/facts.golden"

// factsSources lists the programs the golden covers.
func factsSources(t *testing.T) []string {
	t.Helper()
	var srcs []string
	for _, pat := range []string{
		filepath.Join("..", "..", "examples", "*", "*.rvm"),
		filepath.Join("..", "interp", "testdata", "hazards", "*.rvm"),
	} {
		m, err := filepath.Glob(pat)
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, m...)
	}
	if len(srcs) < 17 {
		t.Fatalf("found only %d programs: %v", len(srcs), srcs)
	}
	return srcs
}

// renderFacts renders one program's facts: the JSON document, every
// per-method and per-pc accessor, and the text renderings.
func renderFacts(t *testing.T, src string) string {
	t.Helper()
	text, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := bytecode.Assemble(string(text))
	if err != nil {
		t.Fatal(err)
	}
	if prog, err = rewrite.Rewrite(prog); err != nil {
		t.Fatal(err)
	}
	f, err := analysis.Analyze(prog)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	js, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s\n%s\n", filepath.ToSlash(src), js)
	for _, m := range prog.Methods {
		var elidable, neverHeld []int
		var confined []string
		for pc := range m.Code {
			if f.ElidableStore(m.Name, pc) {
				elidable = append(elidable, pc)
			}
			if f.StoreNeverHeld(m.Name, pc) {
				neverHeld = append(neverHeld, pc)
			}
			if exits, ok := f.ConfinedExits(m.Name, pc); ok {
				confined = append(confined, fmt.Sprintf("%d->%v", pc, exits))
			}
		}
		fmt.Fprintf(&b, "method %s may-run-held=%v elidable=%v\n  elidable-stores=%v never-held=%v confined-exits=%v\n",
			m.Name, f.MayRunHeld(m.Name), f.MethodElidable(m.Name), elidable, neverHeld, confined)
	}
	slots := make([]string, 0)
	for s := range f.RaceFreeSlotNames() {
		slots = append(slots, s)
	}
	sort.Strings(slots)
	fmt.Fprintf(&b, "race-free slot names: %v\n%s%s%s%s", slots,
		f.Render(), f.RenderEscape(), f.RenderRaces(), f.RenderDeadlocks())
	return b.String()
}

// TestFactsGolden pins the analysis output of every covered program
// against a committed file, so a refactor of the passes must reproduce
// every fact byte for byte. Run with -update after an intentional change
// to what the analysis derives.
func TestFactsGolden(t *testing.T) {
	var b strings.Builder
	for _, src := range factsSources(t) {
		b.WriteString(renderFacts(t, src))
	}
	got := b.String()
	if *update {
		if err := os.WriteFile(factsGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(factsGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("facts diverge at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("facts length differ: got %d lines, want %d", len(gl), len(wl))
}
