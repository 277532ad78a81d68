package analysis

import (
	"strings"
	"testing"

	"repro/internal/bytecode"
)

func analyze(t *testing.T, src string) *Facts {
	t.Helper()
	p, err := bytecode.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	f, err := Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestNativeSectionNonRevocable: a section containing a native call is
// statically non-revocable, with the native named in the reason.
func TestNativeSectionNonRevocable(t *testing.T) {
	f := analyze(t, `
class Lock {
    unused
}
static L
method main locals 1 {
    newobj Lock
    putstatic L
    getstatic L
    store 0
    sync 0 {
        const 1
        native log 1
        pop
    }
    return
}
`)
	if len(f.Sections) != 1 {
		t.Fatalf("sections = %d, want 1", len(f.Sections))
	}
	s := f.Sections[0]
	if !s.NonRevocable {
		t.Fatalf("native section classified revocable: %+v", s)
	}
	if len(s.Reasons) != 1 || s.Reasons[0].Kind != "native-call" || s.Reasons[0].Detail != "log" {
		t.Fatalf("reasons = %+v, want one native-call log", s.Reasons)
	}
	if s.Lock != "static:L" {
		t.Fatalf("lock id = %q, want static:L", s.Lock)
	}
	if got := f.SectionAt(s.Enter.Method, s.Enter.PC); got != s {
		t.Fatalf("SectionAt(%v) = %v", s.Enter, got)
	}
}

// TestVolatileAndWaitTriggers: volatile static reads and waits inside a
// section mark it non-revocable; a clean section stays revocable.
func TestVolatileAndWaitTriggers(t *testing.T) {
	f := analyze(t, `
class Lock {
    unused
}
static L
static flag volatile = 0
method volsec locals 1 {
    getstatic L
    store 0
    sync 0 {
        getstatic flag
        pop
    }
    return
}
method waitsec locals 1 {
    getstatic L
    store 0
    sync 0 {
        load 0
        wait
    }
    return
}
method cleansec locals 1 {
    getstatic L
    store 0
    sync 0 {
        nop
    }
    return
}
`)
	byMethod := map[string]*Section{}
	for _, s := range f.Sections {
		byMethod[s.Enter.Method] = s
	}
	if s := byMethod["volsec"]; !s.NonRevocable || s.Reasons[0].Kind != "volatile-read" || s.Reasons[0].Detail != "flag" {
		t.Fatalf("volsec: %+v", s)
	}
	if s := byMethod["waitsec"]; !s.NonRevocable || s.Reasons[0].Kind != "nested-wait" {
		t.Fatalf("waitsec: %+v", s)
	}
	if s := byMethod["cleansec"]; s.NonRevocable {
		t.Fatalf("cleansec flagged non-revocable: %+v", s)
	}
	if n := f.NonRevocableSections(); n != 2 {
		t.Fatalf("NonRevocableSections = %d, want 2", n)
	}
}

// TestTriggerInCallee: a native reachable only through a chain of calls
// still poisons the section.
func TestTriggerInCallee(t *testing.T) {
	f := analyze(t, `
class Lock {
    unused
}
static L
method deep locals 0 {
    const 1
    native log 1
    pop
    return
}
method mid locals 0 {
    invoke deep
    return
}
method main locals 1 {
    getstatic L
    store 0
    sync 0 {
        invoke mid
    }
    return
}
`)
	var s *Section
	for _, c := range f.Sections {
		if c.Enter.Method == "main" {
			s = c
		}
	}
	if s == nil || !s.NonRevocable {
		t.Fatalf("section with native in transitive callee not flagged: %+v", s)
	}
	if s.Reasons[0].Pos.Method != "deep" {
		t.Fatalf("reason position = %v, want deep", s.Reasons[0].Pos)
	}
	if len(s.Callees) != 2 {
		t.Fatalf("callees = %v, want [deep mid]", s.Callees)
	}
}

// TestLockOrderCycle: two methods acquiring two static locks in opposite
// orders produce one two-lock cycle with method@pc witnesses.
func TestLockOrderCycle(t *testing.T) {
	f := analyze(t, `
class Lock {
    unused
}
static A
static B
method ab locals 2 {
    getstatic A
    store 0
    getstatic B
    store 1
    sync 0 {
        sync 1 {
            nop
        }
    }
    return
}
method ba locals 2 {
    getstatic A
    store 0
    getstatic B
    store 1
    sync 1 {
        sync 0 {
            nop
        }
    }
    return
}
`)
	if len(f.Cycles) != 1 {
		t.Fatalf("cycles = %+v, want exactly 1", f.Cycles)
	}
	c := f.Cycles[0]
	if len(c.Locks) != 2 || c.Locks[0] != "static:A" || c.Locks[1] != "static:B" {
		t.Fatalf("cycle locks = %v", c.Locks)
	}
	if len(c.Edges) != 2 {
		t.Fatalf("cycle edges = %+v, want 2 witnesses", c.Edges)
	}
	for _, e := range c.Edges {
		if e.At.Method != "ab" && e.At.Method != "ba" {
			t.Fatalf("witness %+v names unexpected method", e)
		}
	}
}

// TestLockOrderThroughCallee: nesting via an invoked method still yields the
// cycle, and consistent ordering yields none.
func TestLockOrderThroughCallee(t *testing.T) {
	f := analyze(t, `
class Lock {
    unused
}
static A
static B
method inner locals 1 {
    getstatic B
    store 0
    sync 0 {
        nop
    }
    return
}
method outer locals 1 {
    getstatic A
    store 0
    sync 0 {
        invoke inner
    }
    return
}
method reversed locals 2 {
    getstatic A
    store 0
    getstatic B
    store 1
    sync 1 {
        sync 0 {
            nop
        }
    }
    return
}
`)
	if len(f.Cycles) != 1 {
		t.Fatalf("cycles = %+v, want 1", f.Cycles)
	}

	// Without the reversed acquisition there is no cycle.
	f2 := analyze(t, `
class Lock {
    unused
}
static A
static B
method inner locals 1 {
    getstatic B
    store 0
    sync 0 {
        nop
    }
    return
}
method outer locals 1 {
    getstatic A
    store 0
    sync 0 {
        invoke inner
    }
    return
}
`)
	if len(f2.Cycles) != 0 {
		t.Fatalf("consistent order reported cycles: %+v", f2.Cycles)
	}
}

// TestElisionNeverHeld: stores in a method that never runs under a monitor
// are elidable; the same store becomes barriered when the method is invoked
// from inside a section.
func TestElisionNeverHeld(t *testing.T) {
	src := `
class Point {
    x
}
class Lock {
    unused
}
static L
method free locals 1 {
    newobj Point
    store 0
    load 0
    const 5
    putfield Point.x
    return
}
`
	f := analyze(t, src)
	if f.TotalStores != 1 || f.ElidableStores != 1 || f.NeverHeldStores != 1 {
		t.Fatalf("counts = total %d elidable %d neverHeld %d", f.TotalStores, f.ElidableStores, f.NeverHeldStores)
	}
	if !f.MethodElidable("free") || !f.StoreNeverHeld("free", 4) {
		t.Fatalf("free not elidable: %+v", f)
	}

	f2 := analyze(t, src+`
method caller locals 1 {
    getstatic L
    store 0
    sync 0 {
        invoke free
    }
    return
}
`)
	if f2.MethodElidable("free") || f2.StoreNeverHeld("free", 4) {
		t.Fatal("free still never-held though invoked from a section")
	}
	if !f2.MayRunHeld("free") {
		t.Fatal("MayRunHeld(free) = false")
	}
	// The store's receiver is freshly allocated, so per-instruction elision
	// still applies (via allocation logging), just not the never-held proof.
	if !f2.ElidableStore("free", 4) || f2.FreshStores != 1 {
		t.Fatalf("fresh-target elision missing: fresh=%d", f2.FreshStores)
	}
}

// TestElisionFreshInSection: a store to an object allocated inside the
// section is elidable; a store to an object allocated before the enter is
// not.
func TestElisionFreshInSection(t *testing.T) {
	f := analyze(t, `
class Point {
    x
}
class Lock {
    unused
}
static L
method freshstore locals 2 {
    getstatic L
    store 0
    sync 0 {
        newobj Point
        store 1
        load 1
        const 5
        putfield Point.x
    }
    return
}
method stale locals 2 {
    getstatic L
    store 0
    newobj Point
    store 1
    sync 0 {
        load 1
        const 5
        putfield Point.x
    }
    return
}
`)
	freshPC, stalePC := -1, -1
	p := f.prog
	for _, name := range []string{"freshstore", "stale"} {
		m, _ := p.Method(name)
		for pc, in := range m.Code {
			if in.Op == bytecode.PUTFIELD {
				if name == "freshstore" {
					freshPC = pc
				} else {
					stalePC = pc
				}
			}
		}
	}
	if !f.ElidableStore("freshstore", freshPC) {
		t.Fatal("store to in-section allocation not elided")
	}
	if f.ElidableStore("stale", stalePC) {
		t.Fatal("store to pre-section allocation unsoundly elided")
	}
	if f.FreshStores != 1 || f.NeverHeldStores != 0 {
		t.Fatalf("fresh=%d neverHeld=%d, want 1/0", f.FreshStores, f.NeverHeldStores)
	}
	// Method-level elision must reject both: it may not rely on freshness.
	if f.MethodElidable("freshstore") || f.MethodElidable("stale") {
		t.Fatal("MethodElidable used a fresh-target proof")
	}
}

// TestFreshnessKilledByImpureCall: an intervening call to a method that
// takes monitors invalidates freshness.
func TestFreshnessKilledByImpureCall(t *testing.T) {
	f := analyze(t, `
class Point {
    x
}
class Lock {
    unused
}
static L
method impure locals 1 {
    getstatic L
    store 0
    sync 0 {
        nop
    }
    return
}
method pure locals 0 {
    const 1
    pop
    return
}
method killed locals 2 {
    getstatic L
    store 0
    sync 0 {
        newobj Point
        store 1
        invoke impure
        load 1
        const 5
        putfield Point.x
    }
    return
}
method kept locals 2 {
    getstatic L
    store 0
    sync 0 {
        newobj Point
        store 1
        invoke pure
        load 1
        const 5
        putfield Point.x
    }
    return
}
`)
	find := func(method string) int {
		m, _ := f.prog.Method(method)
		for pc, in := range m.Code {
			if in.Op == bytecode.PUTFIELD {
				return pc
			}
		}
		t.Fatalf("no putfield in %s", method)
		return -1
	}
	if f.ElidableStore("killed", find("killed")) {
		t.Fatal("freshness survived a monitor-taking call")
	}
	if !f.ElidableStore("kept", find("kept")) {
		t.Fatal("freshness lost across a provably monitor-free call")
	}
}

// TestHandlerUnionHeld: a user handler covering a synchronized region runs
// with the monitor held (no release handler in hand-written code), so its
// stores are not elidable — even though the handler's range starts outside
// the region at monitor depth 0.
func TestHandlerUnionHeld(t *testing.T) {
	f := analyze(t, `
class Point {
    x
}
class Lock {
    unused
}
static L
method uhandler locals 2 {
    getstatic L
    store 0
    newobj Point
    store 1
  tfrom:
    nop
    load 0
    monitorenter
    nop
    load 0
    monitorexit
  tend:
    goto done
  hdl:
    pop
    load 1
    const 7
    putfield Point.x
    goto done
  done:
    return
}
handler uhandler from tfrom to tend target hdl catch *
`)
	m, _ := f.prog.Method("uhandler")
	pfPC := -1
	for pc, in := range m.Code {
		if in.Op == bytecode.PUTFIELD {
			pfPC = pc
		}
	}
	if f.ElidableStore("uhandler", pfPC) || f.StoreNeverHeld("uhandler", pfPC) {
		t.Fatal("store in handler over a synchronized region was elided")
	}
	// The handler pcs must be inside the section.
	s := f.Sections[0]
	inSection := false
	for _, pc := range s.PCs {
		if pc == pfPC {
			inSection = true
		}
	}
	if !inSection {
		t.Fatalf("handler store pc %d missing from section pcs %v", pfPC, s.PCs)
	}
}

// TestSynchronizedMethodSection: a synchronized method yields a synthetic
// whole-body section and its stores are never elidable by the never-held
// proof.
func TestSynchronizedMethodSection(t *testing.T) {
	f := analyze(t, `
class Point {
    x
}
method Point.set synchronized args 2 locals 2 {
    load 0
    load 1
    putfield Point.x
    const 1
    native log 1
    pop
    return
}
`)
	if len(f.Sections) != 1 {
		t.Fatalf("sections = %+v", f.Sections)
	}
	s := f.Sections[0]
	if !s.SyncMethod || !s.NonRevocable || s.Lock != "recv:Point.set" {
		t.Fatalf("synthetic section = %+v", s)
	}
	if f.MethodElidable("Point.set") || f.ElidableStore("Point.set", 2) {
		t.Fatal("store in synchronized method elided")
	}
}

// TestRenderDeterministic: Render mentions the load-bearing findings and is
// stable across runs.
func TestRenderDeterministic(t *testing.T) {
	src := `
class Lock {
    unused
}
static A
static B
method ab locals 2 {
    getstatic A
    store 0
    getstatic B
    store 1
    sync 0 {
        sync 1 {
            const 1
            native log 1
            pop
        }
    }
    return
}
method ba locals 2 {
    getstatic A
    store 0
    getstatic B
    store 1
    sync 1 {
        sync 0 {
            nop
        }
    }
    return
}
`
	out := analyze(t, src).Render()
	for _, want := range []string{"NON-REVOCABLE", "native-call log", "static:A <-> static:B", "potential deadlocks"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	if out2 := analyze(t, src).Render(); out != out2 {
		t.Fatal("render not deterministic")
	}
}

// TestAnalyzeReturnsVerifyError: Analyze verifies each method once itself
// and must still return exactly the first error bytecode.Verify reports —
// a method error, a monitor-balance error, a thread error, and a method
// error ahead of a thread error.
func TestAnalyzeReturnsVerifyError(t *testing.T) {
	cases := map[string]string{
		"method": `
method main locals 0 {
    pop
    return
}
`,
		"monitor balance": `
static L
method main locals 0 {
    getstatic L
    monitorexit
    return
}
`,
		"thread": `
thread T priority 11 run main
method main locals 0 {
    return
}
`,
		"method before thread": `
thread T run nowhere priority 5
method ok locals 0 {
    return
}
method bad locals 0 {
    add
    return
}
`,
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) {
			p, err := bytecode.Assemble(src)
			if err != nil {
				t.Fatal(err)
			}
			want := bytecode.Verify(p)
			if want == nil {
				t.Fatal("fixture verifies")
			}
			f, err := Analyze(p)
			if f != nil || err == nil || err.Error() != want.Error() {
				t.Fatalf("Analyze = %v, %v; want the verifier's %v", f, err, want)
			}
		})
	}
}
