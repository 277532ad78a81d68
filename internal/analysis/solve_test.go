package analysis

import (
	"reflect"
	"testing"

	"repro/internal/bytecode"
)

// level is a toy solver state: the highest level any path carried to a pc.
type level int

func (l *level) copyFrom(src *level) { *l = *src }
func (l *level) live() bool          { return true }

// levelLattice passes levels through unchanged, joins by max and seeds a
// handler target with the highest level over its reached covered range.
var levelLattice = &lattice[level]{
	transfer: func(int, *level) bool { return true },
	join: func(dst, src *level) (bool, bool) {
		if *src > *dst {
			*dst = *src
			return true, true
		}
		return false, true
	},
	handler: func(_ bytecode.Handler, in []*level) *level {
		var seed *level
		for _, st := range in {
			if st != nil && (seed == nil || *st > *seed) {
				v := *st
				seed = &v
			}
		}
		return seed
	},
}

func ops(code ...bytecode.Op) []bytecode.Instr {
	out := make([]bytecode.Instr, len(code))
	for i, op := range code {
		out[i] = bytecode.Instr{Op: op}
	}
	return out
}

func reached[S any](in []*S) []int {
	var pcs []int
	for pc, st := range in {
		if st != nil {
			pcs = append(pcs, pc)
		}
	}
	return pcs
}

// TestSolveNestedHandlerReseed: the inner handler's range is the outer
// handler's body, and the inner handler is listed first, so the round that
// first reaches its range has already passed it. Only the re-seed loop
// reaches the inner target.
func TestSolveNestedHandlerReseed(t *testing.T) {
	m := &bytecode.Method{
		Name: "nested",
		Code: ops(
			bytecode.NOP, bytecode.NOP, bytecode.RETURN, // 0-2: protected by the outer handler
			bytecode.NOP, bytecode.RETURN, // 3-4: outer handler body, protected by the inner one
			bytecode.NOP, bytecode.RETURN, // 5-6: inner handler body
		),
		Handlers: []bytecode.Handler{
			{From: 3, To: 5, Target: 5, Catch: "*"},
			{From: 0, To: 2, Target: 3, Catch: "*"},
		},
	}
	entry := level(7)
	in, ok := solve[level](m, levelLattice, &entry, 0)
	if !ok {
		t.Fatal("solve aborted")
	}
	if got, want := reached(in), []int{0, 1, 2, 3, 4, 5, 6}; !reflect.DeepEqual(got, want) {
		t.Fatalf("reached pcs %v, want %v", got, want)
	}
	if *in[6] != 7 {
		t.Fatalf("inner handler body carries level %d, want 7", *in[6])
	}
}

// TestSolveUnreachableHandlerRange: a rule over the covered in-states
// seeds nothing when no state reaches the range, while a rule that seeds
// unconditionally (freshness: nothing is fresh at a handler) still does.
func TestSolveUnreachableHandlerRange(t *testing.T) {
	m := &bytecode.Method{
		Name: "dead",
		Code: ops(
			bytecode.RETURN,               // 0
			bytecode.NOP, bytecode.RETURN, // 1-2: unreachable, covered
			bytecode.NOP, bytecode.RETURN, // 3-4: handler body
		),
		Handlers: []bytecode.Handler{{From: 1, To: 3, Target: 3, Catch: "*"}},
	}
	entry := level(1)
	in, ok := solve[level](m, levelLattice, &entry, 0)
	if !ok || !reflect.DeepEqual(reached(in), []int{0}) {
		t.Fatalf("covered-range rule: ok=%v reached %v, want only pc 0", ok, reached(in))
	}

	mi := &methodInfo{m: m, stack: []int{0, -1, -1, 1, 1}}
	m.Locals = 1
	f := &Facts{prog: &bytecode.Program{}, methods: map[string]*methodInfo{"dead": mi}}
	if got := reached(f.nameStates(mi)); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("nameStates reached %v, want only pc 0", got)
	}
	fresh := f.freshness(mi, false)
	if got := reached(fresh); !reflect.DeepEqual(got, []int{0, 3, 4}) {
		t.Fatalf("freshness reached %v, want [0 3 4]", got)
	}
	if len(fresh[3].stack) != 1 || fresh[3].top(1) {
		t.Fatalf("freshness handler entry %+v, want one non-fresh operand", *fresh[3])
	}
}

// TestSolveStackShapeMismatch: two paths reach one pc with different
// stack depths (impossible in verified code); the join reports ok=false
// and the solve aborts with no state anywhere.
func TestSolveStackShapeMismatch(t *testing.T) {
	m := &bytecode.Method{
		Name: "shape",
		Code: []bytecode.Instr{
			{Op: bytecode.CONST, V: 0},
			{Op: bytecode.IFZ, A: 4}, // depth 0 at pc 4 on the branch
			{Op: bytecode.CONST, V: 1},
			{Op: bytecode.GOTO, A: 4}, // depth 1 at pc 4 on the fall-through
			{Op: bytecode.RETURN},
		},
	}
	p := &bytecode.Program{Methods: []*bytecode.Method{m}}
	l := &lattice[slots[bool]]{
		transfer: func(pc int, st *slots[bool]) bool { return st.step(p, m, pc) },
		join:     slotJoin(func(a, b bool) bool { return a && b }),
	}
	in, ok := solve[slots[bool]](m, l, &slots[bool]{}, 0)
	if ok {
		t.Fatal("solve over mismatched stack shapes succeeded")
	}
	if got := reached(in); got != nil {
		t.Fatalf("aborted solve left states at %v", got)
	}
}

// TestHeldBlowupMarksEveryPC: a user handler covering its own enter's
// body loops back through the enter, raising the relative depth on every
// round. Past relCap heldFrom gives up and reports every pc held — even
// the unreachable one. A back edge through the enter poisons
// monitorPairing the same way.
func TestHeldBlowupMarksEveryPC(t *testing.T) {
	m := &bytecode.Method{
		Name:   "loop",
		Locals: 1,
		Code: []bytecode.Instr{
			{Op: bytecode.LOAD, A: 0},
			{Op: bytecode.MONITORENTER},
			{Op: bytecode.LOAD, A: 0},
			{Op: bytecode.THROW, S: "E"},
			{Op: bytecode.RETURN}, // unreachable
		},
		Handlers: []bytecode.Handler{{From: 2, To: 4, Target: 0, Catch: "E"}},
	}
	if got, want := heldFrom(m, 1), []int{0, 1, 2, 3, 4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("heldFrom = %v, want every pc %v", got, want)
	}
	// Without the looping handler the depth stays bounded: only the
	// enter's body is held.
	m.Handlers = nil
	if got, want := heldFrom(m, 1), []int{2, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("heldFrom without handler = %v, want %v", got, want)
	}

	// monitorPairing follows no handler edge; a plain back edge through
	// the enter blows its tracking up instead.
	m.Code[2] = bytecode.Instr{Op: bytecode.GOTO, A: 0}
	if p := monitorPairing(m, 1); !p.poison || p.clean {
		t.Fatalf("monitorPairing = %+v, want poisoned and unclean", p)
	}
}

// TestDepthSet: union keeps the depths sorted and reports growth, exit
// releases depth 1, and enter drops a depth past the limit and reports it.
func TestDepthSet(t *testing.T) {
	d := depthSet{2}
	if !d.union(depthSet{3, 1}) || d.union(depthSet{2}) || !reflect.DeepEqual(d, depthSet{1, 2, 3}) {
		t.Fatalf("union: %v", d)
	}
	d.exit()
	if !reflect.DeepEqual(d, depthSet{1, 2}) {
		t.Fatalf("exit: %v", d)
	}
	if !d.enter(2) || !reflect.DeepEqual(d, depthSet{2}) {
		t.Fatalf("enter past limit 2: %v", d)
	}
	d.exit()
	d.exit()
	if d.live() {
		t.Fatalf("depth 1 survived its exit: %v", d)
	}
}
