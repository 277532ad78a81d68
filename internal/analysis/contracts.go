package analysis

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/bytecode"
)

// Recursive contract inference.
//
// The behavioral pass names a monitor reached through an unwritten
// parameter "recv:M" / "argN:M" — one object per executing frame, so the
// nominal name is deliberately excluded from every circularity criterion
// (a nested acquisition through one unchanged variable is plain
// reentrancy). That exclusion is exactly right per frame and exactly wrong
// across frames: a RECURSIVE method that swaps its lock parameters on the
// way down re-acquires, in the callee frame, an object the caller frame
// named differently. Bounded unfolding of the contract cannot see it —
// any finite unfolding of f(a,b) -> f(b,a) keeps producing the same
// nominal "recv:f" name — which is the truncation Garcia & Laneve's
// circularity on lam terms removes: instead of unfolding, solve for the
// set of concrete lock names each parameter may be BOUND to, as the least
// fixpoint of the call-site flow constraints, and let the cycle check run
// over resolved names.
//
// The inference has two halves:
//
//   - Per method, a symbolic name dataflow over (stack, locals) computes,
//     at every INVOKE/SPAWN, which behavioral name each argument carries:
//     a concrete name (static:/new:/field:/array:), a reference to one of
//     the current method's own parameters (the lam variable), or unknown.
//     The lattice is flat — two different names meet to unknown.
//
//   - A whole-program fixpoint closes the flow relation: a concrete name
//     flowing into parameter j of g lands in binds[g][j]; a parameter
//     reference (m, i) adds the edge binds[g][j] ⊇ binds[m][i]; recursion
//     makes the constraint graph cyclic and the least solution saturates
//     exactly where bounded unfolding truncates (f(a,b) -> f(b,a) yields
//     binds[f][0] = binds[f][1] = {a, b}).
//
// computeDeadlocks then substitutes: an acquisition whose nominal name is
// recv:/argN: and whose parameter resolves to a non-empty, closed binding
// set (no unknown may reach it) contributes every bound name to the
// behavioral lock-order graph. An open binding keeps the nominal name —
// the original zero-false-positive behavior — so programs that never pass
// locks through calls report exactly as before.

// lamBinding is the resolved binding set of one method parameter.
type lamBinding struct {
	names map[string]bool
	// open marks a parameter that may also be bound to a value the naming
	// cannot resolve (unknown flow, unmodelled caller, thread-root entry);
	// substitution is then unsound and the nominal name is kept.
	open bool
}

// paramRefPrefix marks a symbolic dataflow value that names the current
// method's i-th parameter; behavioral lock names never collide with it.
const paramRefPrefix = "\x00param:"

// absorb adds src's names and openness to b and reports whether b changed.
func (b *lamBinding) absorb(src *lamBinding) (changed bool) {
	for n := range src.names {
		if !b.names[n] {
			b.names[n] = true
			changed = true
		}
	}
	if src.open && !b.open {
		b.open = true
		changed = true
	}
	return changed
}

// paramBindings solves the whole-program binding sets per method and
// parameter index. Each call site contributes to its callee's parameter
// slots: a concrete name directly, an unknown value by opening the slot,
// and a caller-parameter reference as a flow edge binds[callee][j] ⊇
// binds[caller][i], which the call-graph driver closes.
func (f *Facts) paramBindings(d *derivation) map[string][]lamBinding {
	binds := make(map[string][]lamBinding, len(f.prog.Methods))
	for _, m := range f.prog.Methods {
		bs := make([]lamBinding, m.Args)
		for i := range bs {
			bs[i].names = make(map[string]bool)
		}
		binds[m.Name] = bs
	}
	type flow struct {
		from   int    // caller parameter index
		callee string // callee method
		to     int    // callee parameter index
	}
	flows := make(map[string][]flow)
	var w callWork
	for _, m := range f.prog.Methods {
		mi := f.methods[m.Name]
		states := d.nameStates(mi)
		for pc, in := range m.Code {
			if (in.Op != bytecode.INVOKE && in.Op != bytecode.SPAWN) || mi.depth[pc] < 0 {
				continue
			}
			callee := f.methods[in.S]
			if callee == nil {
				continue
			}
			// An unmodellable method or a short stack passes every
			// argument open.
			st := states[pc]
			for j := 0; j < callee.m.Args; j++ {
				b := &binds[in.S][j]
				if st == nil || len(st.stack) < callee.m.Args {
					b.open = true
					continue
				}
				switch v := st.stack[len(st.stack)-callee.m.Args+j]; {
				case v == "":
					b.open = true
				case strings.HasPrefix(v, paramRefPrefix):
					i, _ := strconv.Atoi(v[len(paramRefPrefix):]) // nameStates wrote it with Itoa
					flows[m.Name] = append(flows[m.Name], flow{i, in.S, j})
				default:
					b.names[v] = true
				}
			}
		}
		w.push(m.Name)
	}
	// A declared thread's target starts with zeroed locals, not caller
	// arguments: any parameters it has are open.
	for _, td := range f.prog.Threads {
		for j := range binds[td.Method] {
			binds[td.Method][j].open = true
		}
	}
	// Least fixpoint over the flow edges; recursion makes them cyclic.
	w.run(func(name string) {
		for _, fl := range flows[name] {
			if binds[fl.callee][fl.to].absorb(&binds[name][fl.from]) {
				w.push(fl.callee)
			}
		}
	})
	return binds
}

// nameStates computes the symbolic lock-name vector at every pc: each slot
// holds a concrete behavioral name, a paramRefPrefix reference, or ""
// (unknown). A pc has no state when it is unreached or when an instruction
// cannot be modelled (the callers then treat every argument the method
// passes as open).
func (f *Facts) nameStates(mi *methodInfo) []*slots[string] {
	m := mi.m
	flat := func(a, b string) string {
		if a == b {
			return a
		}
		return ""
	}
	l := &lattice[slots[string]]{
		transfer: func(pc int, st *slots[string]) bool { return f.nameTransfer(mi, pc, st) },
		join:     slotJoin(flat),
		// An exception at any covered pc transfers to the target with an
		// unknown operand stack but the LOCALS preserved, so the target's
		// locals are the flat meet over the covered range. (Seeding with
		// all-unknown locals instead would let a rollback trampoline's back
		// edge erase every name the straight-line flow established.)
		handler: coveredSeed(mi, flat),
	}
	entry := &slots[string]{locals: make([]string, m.Locals)}
	for i := 0; i < m.Args && i < m.Locals; i++ {
		entry.locals[i] = paramRefPrefix + strconv.Itoa(i)
	}
	in, _ := solve[slots[string]](m, l, entry, 0)
	return in
}

// nameTransfer applies one instruction to st in place; ok=false when the
// tracked stack shape underflows.
func (f *Facts) nameTransfer(mi *methodInfo, pc int, st *slots[string]) bool {
	m := mi.m
	if !st.step(f.prog, m, pc) {
		return false
	}
	switch in := m.Code[pc]; in.Op {
	case bytecode.GETSTATIC, bytecode.NEWOBJ:
		st.setTop(f.objectSource(m, in, pc))
	case bytecode.GETFIELD, bytecode.ALOAD:
		st.setTop(elementSource(in, pc))
	}
	return true
}

// paramIndexOf maps a nominal recv:/argN: lock name of the given method
// to the parameter index it denotes, or -1.
func paramIndexOf(name, method string) int {
	base := baseName(method)
	if name == "recv:"+base {
		return 0
	}
	var i int
	if n, _ := fmt.Sscanf(name, "arg%d:", &i); n == 1 && strings.HasSuffix(name, ":"+base) {
		return i
	}
	return -1
}

// resolveLockName substitutes the inferred parameter binding for a
// nominal recv:/argN: acquisition name: a closed, non-empty binding
// yields its concrete names (sorted); anything else keeps the nominal
// name.
func resolveLockName(name, method string, binds map[string][]lamBinding) []string {
	idx := paramIndexOf(name, method)
	if idx < 0 {
		return []string{name}
	}
	bs := binds[method]
	if idx >= len(bs) || bs[idx].open || len(bs[idx].names) == 0 {
		return []string{name}
	}
	out := make([]string, 0, len(bs[idx].names))
	for n := range bs[idx].names {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
