package interp

import (
	"strings"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/sched"
)

// TestAllComparisonOps exercises every comparison operator on both tiers.
func TestAllComparisonOps(t *testing.T) {
	cases := []struct {
		op   string
		a, b int64
		want heap.Word
	}{
		{"cmpeq", 3, 3, 1}, {"cmpeq", 3, 4, 0},
		{"cmpne", 3, 4, 1}, {"cmpne", 3, 3, 0},
		{"cmplt", 2, 3, 1}, {"cmplt", 3, 3, 0},
		{"cmple", 3, 3, 1}, {"cmple", 4, 3, 0},
		{"cmpgt", 4, 3, 1}, {"cmpgt", 3, 3, 0},
		{"cmpge", 3, 3, 1}, {"cmpge", 2, 3, 0},
	}
	for _, c := range cases {
		src := `
method main locals 0 returns {
    const ` + itoa(c.a) + `
    const ` + itoa(c.b) + `
    ` + c.op + `
    ireturn
}
`
		for _, tier := range allTiers {
			got := callMainWith(t, src, Options{Tier: tier})
			if got != c.want {
				t.Errorf("%s(%d,%d) %v tier = %d, want %d", c.op, c.a, c.b, tier, got, c.want)
			}
		}
	}
}

func itoa(v int64) string {
	if v < 0 {
		return "-" + itoa(-v)
	}
	if v < 10 {
		return string(rune('0' + v))
	}
	return itoa(v/10) + string(rune('0'+v%10))
}

// TestModByZero raises ArithmeticException like div.
func TestModByZero(t *testing.T) {
	ret, _ := callMain(t, `
method main locals 0 returns {
  try:
    const 1
    const 0
    mod
    ireturn
  after:
    const 0
    ireturn
  catcher:
    pop
    const 1
    ireturn
}
handler main from try to after target catcher catch ArithmeticException
`)
	if ret != 1 {
		t.Fatalf("mod-by-zero not raised: %d", ret)
	}
}

// TestSwapAndNopAndDup cover the small stack ops on both tiers.
func TestSwapAndNopAndDup(t *testing.T) {
	src := `
method main locals 0 returns {
    nop
    const 10
    const 3
    swap
    sub      # 3 - 10 = -7
    dup
    add      # -14
    neg      # 14
    ireturn
}
`
	for _, tier := range allTiers {
		if got := callMainWith(t, src, Options{Tier: tier}); got != 14 {
			t.Errorf("%v tier: got %d, want 14", tier, got)
		}
	}
}

// TestEnvObjectArrayAccessors cover the public resolution helpers.
func TestEnvObjectArrayAccessors(t *testing.T) {
	prog := bytecode.MustAssemble(`
class C {
    f
}
method main locals 0 {
    return
}
`)
	rt := core.New(core.Config{})
	env, err := NewEnv(rt, prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := env.NewObject("C")
	if err != nil {
		t.Fatal(err)
	}
	if o, ok := env.Object(ref); !ok || o.Class() != "C" {
		t.Fatal("Object accessor failed")
	}
	if _, ok := env.Object(9999); ok {
		t.Fatal("phantom object")
	}
	aref := env.NewArray(3)
	if a, ok := env.Array(aref); !ok || a.Len() != 3 {
		t.Fatal("Array accessor failed")
	}
	if _, ok := env.Array(9999); ok {
		t.Fatal("phantom array")
	}
	rt.Spawn("noop", sched.NormPriority, func(*core.Task) {})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestRunPropagatesSpawnErrors covers Run's error paths.
func TestRunPropagatesSpawnErrors(t *testing.T) {
	// Unverifiable program.
	rt := core.New(core.Config{})
	bad := &bytecode.Program{Methods: []*bytecode.Method{{Name: "m", Locals: 0, Code: []bytecode.Instr{{Op: bytecode.ADD}, {Op: bytecode.RETURN}}}}}
	if _, err := Run(rt, bad, Options{}); err == nil {
		t.Fatal("unverifiable program accepted")
	}
}

// TestMonitorOpsOnBadRefs raise NullPointerException.
func TestMonitorOpsOnBadRefs(t *testing.T) {
	for _, op := range []string{"monitorenter", "wait", "notify", "notifyall"} {
		src := `
method main locals 0 returns {
  try:
    const 424242
    ` + op + `
  after:
    const 0
    ireturn
  catcher:
    pop
    const 1
    ireturn
}
handler main from try to after target catcher catch NullPointerException
`
		if got, _ := callMain(t, src); got != 1 {
			t.Errorf("%s on bad ref: got %d, want NPE handler (1)", op, got)
		}
	}
}

// TestMonitorExitMismatchFails: exiting a monitor that is not the innermost
// active region is an interpreter error.
func TestMonitorExitMismatchFails(t *testing.T) {
	prog := bytecode.MustAssemble(`
class Lock {
    unused
}
method main locals 2 {
    newobj Lock
    store 0
    newobj Lock
    store 1
    load 0
    monitorenter
    load 1
    monitorenter
    load 0
    monitorexit
    load 1
    monitorexit
    return
}
`)
	rt := core.New(core.Config{})
	env, err := NewEnv(rt, prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := prog.Method("main")
	var callErr error
	rt.Spawn("main", sched.NormPriority, func(tk *core.Task) {
		_, callErr = env.Call(tk, m, nil)
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if callErr == nil || !strings.Contains(callErr.Error(), "monitorexit") {
		t.Fatalf("err = %v", callErr)
	}
}

// TestFieldIndexOutOfRangeFails cleanly.
func TestFieldIndexOutOfRangeFails(t *testing.T) {
	prog := bytecode.MustAssemble(`
class C {
    f
}
method main locals 1 {
    newobj C
    store 0
    load 0
    getfield 7
    pop
    return
}
`)
	rt := core.New(core.Config{})
	env, err := NewEnv(rt, prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := prog.Method("main")
	var callErr error
	rt.Spawn("main", sched.NormPriority, func(tk *core.Task) {
		_, callErr = env.Call(tk, m, nil)
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if callErr == nil || !strings.Contains(callErr.Error(), "out of range") {
		t.Fatalf("err = %v", callErr)
	}
}
