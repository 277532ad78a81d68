package analysis

import (
	"repro/internal/bytecode"
)

// Flow-sensitive barrier elision.
//
// A store instruction needs no write-barrier slow path when either
//
//  1. it can never execute while a monitor is held — not inside any section
//     of its own method, the method is not synchronized, and the method is
//     never (transitively) invoked from inside a section; with no monitor
//     held the barrier's logging branch is statically dead; or
//
//  2. its target object is provably fresh: allocated after the current
//     section's MONITORENTER with no intervening operation that could leak
//     it or start a new section. The runtime logs one allocation undo entry
//     for such objects (restoring every slot wholesale on rollback), which
//     subsumes per-field undo entries for all subsequent stores to them.
//
// Freshness is a forward dataflow over (stack, locals) boolean vectors,
// AND-merged at joins. NEWOBJ/NEWARR results are fresh; freshness dies at
// any monitor boundary, wait, native call, or call to a method that is not
// provably monitor-free, because past that point a rollback of the current
// section may not replay the allocation.

// freshness computes the in-state for every pc of mi's method: which stack
// slots and locals hold provably-fresh references. A pc has no state when
// it is unreached or when the method contains something the transfer
// cannot model (every store then simply keeps its barrier).
//
// escapeKills selects the stricter thread-locality variant used by the
// race pass: all freshness dies the moment a fresh value escapes (is
// stored into any object/array/static or passed to any call). The base
// dataflow does not track aliases, so "fresh" alone only proves the object
// was allocated in-section — good enough for rollback elision (the
// allocation undo entry restores it) but not for thread-locality, where a
// published alias would let another thread reach the object.
func (f *Facts) freshness(mi *methodInfo, escapeKills bool) []*slots[bool] {
	m := mi.m
	l := &lattice[slots[bool]]{
		transfer: func(pc int, st *slots[bool]) bool { return f.freshTransfer(mi, pc, st, escapeKills) },
		join:     slotJoin(func(a, b bool) bool { return a && b }),
		// Handler entries: nothing is fresh (the throwing path is unknown),
		// with the verifier's entry depth for the stack shape.
		handler: func(h bytecode.Handler, _ []*slots[bool]) *slots[bool] {
			return &slots[bool]{stack: make([]bool, mi.stack[h.Target]), locals: make([]bool, m.Locals)}
		},
	}
	in, _ := solve[slots[bool]](m, l, &slots[bool]{locals: make([]bool, m.Locals)}, 0)
	return in
}

// freshTransfer applies one instruction to st in place; reports ok=false
// when the instruction cannot be modelled against the tracked stack shape.
func (f *Facts) freshTransfer(mi *methodInfo, pc int, st *slots[bool], escapeKills bool) bool {
	in := mi.m.Code[pc]
	kill := false
	if escapeKills {
		switch in.Op {
		case bytecode.PUTFIELD, bytecode.PUTFIELDRAW, bytecode.PUTSTATIC,
			bytecode.PUTSTATICRAW, bytecode.ASTORE, bytecode.ASTORERAW:
			kill = st.top(1) // the stored value is on top
		case bytecode.INVOKE:
			if callee := f.methods[in.S]; callee != nil {
				for k := 1; k <= callee.m.Args; k++ {
					kill = kill || st.top(k)
				}
			}
		}
	}
	if !st.step(f.prog, mi.m, pc) {
		return false
	}
	switch in.Op {
	case bytecode.NEWOBJ, bytecode.NEWARR:
		st.setTop(true)
	case bytecode.MONITORENTER, bytecode.MONITOREXIT, bytecode.WAIT, bytecode.NATIVE:
		// A monitor boundary starts/ends a section; a wait releases and
		// re-acquires; a native is opaque. All invalidate freshness.
		kill = true
	case bytecode.INVOKE:
		kill = kill || !f.methods[in.S].monitorFree
	case bytecode.SPAWN:
		// The spawned thread runs concurrently from here on: its arguments
		// are published, and any object it can reach may be mutated outside
		// the current section, so a rollback replaying the allocation would
		// wipe another thread's writes. All freshness dies.
		kill = true
	}
	if kill {
		st.fill(false)
	}
	return true
}

// computeElision classifies every reachable store instruction.
func (f *Facts) computeElision() {
	for _, m := range f.prog.Methods {
		mi := f.methods[m.Name]
		var fresh []*slots[bool]
		for pc, in := range m.Code {
			var receiverDepth int // stack slots from top to the target ref
			switch in.Op {
			case bytecode.PUTFIELD:
				receiverDepth = 2
			case bytecode.ASTORE:
				receiverDepth = 3
			case bytecode.PUTSTATIC:
				receiverDepth = 0 // statics are never fresh
			default:
				continue
			}
			if mi.depth[pc] < 0 {
				continue // unreachable
			}
			f.TotalStores++
			pos := Pos{m.Name, pc}
			if !mi.held[pc] && !mi.mayRunHeld && !m.Synchronized {
				f.neverHeld[pos] = true
				f.elidable[pos] = true
				f.ElidableStores++
				f.NeverHeldStores++
				continue
			}
			if receiverDepth == 0 {
				continue
			}
			if fresh == nil {
				fresh = f.freshness(mi, false)
			}
			if fresh[pc].top(receiverDepth) {
				f.elidable[pos] = true
				f.ElidableStores++
				f.FreshStores++
			}
		}
	}
}
