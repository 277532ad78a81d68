package analysis

import "repro/internal/bytecode"

// The dataflow solvers.
//
// Every fixpoint in the package runs on one of two drivers. solve is the
// intraprocedural one: a forward worklist over the method CFG (succs) that
// each pass instantiates with its own state, transfer, join and
// handler-entry rule. callWork is the interprocedural one: a worklist of
// method names over the call graph. A pass supplies only its lattice; the
// queueing, the first-post copy, the scratch state and the handler re-seed
// loop are written once, here.
//
// bytecode.VerifyMethod and MonitorDepths deliberately do not run on these
// drivers: they are the load-time trust root the interpreter and the
// certificate gate rely on, so a bug here must not be able to pass them.

// succs returns pc's control successors inside the method: the package's
// one definition of the CFG. Handler edges are excluded; solve applies
// each pass's handler rule instead.
func succs(m *bytecode.Method, pc int) (next [2]int, n int) {
	in := m.Code[pc]
	switch in.Op {
	case bytecode.GOTO:
		return [2]int{in.A}, 1
	case bytecode.IFNZ, bytecode.IFZ:
		return [2]int{in.A, pc + 1}, 2
	case bytecode.RETURN, bytecode.IRETURN, bytecode.THROW, bytecode.RETHROW:
		return next, 0
	}
	if pc+1 < len(m.Code) {
		return [2]int{pc + 1}, 1
	}
	return next, 0
}

// flowState is the value a pass tracks at one pc. Its pointer type copies
// in place, so solve reuses one scratch state across visits.
type flowState[S any] interface {
	*S
	// copyFrom makes the receiver equal to src, reusing its storage.
	copyFrom(src *S)
	// live is false for a state that flows nowhere (a depth set whose
	// acquisition was released on every path); solve posts no successor
	// of a dead out-state.
	live() bool
}

// lattice is one pass's dataflow problem over a method CFG.
type lattice[S any] struct {
	// transfer applies the instruction at pc to st in place; false aborts
	// the solve (the instruction cannot be modelled against st).
	transfer func(pc int, st *S) bool
	// join merges src into dst and reports whether dst changed; ok=false
	// (a stack-shape mismatch) aborts the solve.
	join func(dst, src *S) (changed, ok bool)
	// handler returns the state to seed at h.Target given the in-states
	// over [h.From, h.To) (nil where unreached), or nil to seed nothing.
	// A nil handler follows no handler edge.
	handler func(h bytecode.Handler, in []*S) *S
}

// solve computes the in-state of every pc of m, starting from entry posted
// at each pc in at; nil marks a pc no state reaches. It drains the
// worklist, then re-seeds every handler target from its rule, and repeats
// until a round changes nothing (a handler may cover another handler's
// body). A state is copied when its pc is first posted; each visit
// transfers into one reused scratch state. When the solve aborts, ok is
// false and no pc has a state.
func solve[S any, P flowState[S]](m *bytecode.Method, l *lattice[S], entry *S, at ...int) (in []*S, ok bool) {
	n := len(m.Code)
	in = make([]*S, n)
	slab := make([]S, n)
	queued := make([]bool, n)
	var work []int
	ok = true
	post := func(pc int, st *S) bool {
		if in[pc] == nil {
			in[pc] = &slab[pc]
			P(in[pc]).copyFrom(st)
		} else {
			changed, jok := l.join(in[pc], st)
			if !jok {
				ok = false
			}
			if !changed || !jok {
				return false
			}
		}
		if !queued[pc] {
			queued[pc] = true
			work = append(work, pc)
		}
		return true
	}
	for _, pc := range at {
		post(pc, entry)
	}
	var scratch S
	for ok {
		for ok && len(work) > 0 {
			pc := work[len(work)-1]
			work = work[:len(work)-1]
			queued[pc] = false
			P(&scratch).copyFrom(in[pc])
			if !l.transfer(pc, &scratch) {
				ok = false
				break
			}
			if !P(&scratch).live() {
				continue
			}
			next, k := succs(m, pc)
			for _, s := range next[:k] {
				post(s, &scratch)
			}
		}
		if !ok || l.handler == nil {
			break
		}
		progressed := false
		for _, h := range m.Handlers {
			if seed := l.handler(h, in[h.From:min(h.To, n)]); seed != nil && post(h.Target, seed) {
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}
	if !ok {
		clear(in)
	}
	return in, ok
}

// slots is the state of the stack-machine passes: one value per
// operand-stack slot (index 0 the bottom, the interpreter's
// SAVESTACK/RESTORESTACK order) and one per local.
type slots[T comparable] struct {
	stack  []T
	locals []T
}

func (s *slots[T]) copyFrom(src *slots[T]) {
	s.stack = append(s.stack[:0], src.stack...)
	s.locals = append(s.locals[:0], src.locals...)
}

func (s *slots[T]) live() bool { return true }

// top returns the k-th operand from the top (k=1 is the top), or the zero
// value when the stack is shallower or s is nil (an unreached pc).
func (s *slots[T]) top(k int) T {
	var zero T
	if s == nil || len(s.stack) < k {
		return zero
	}
	return s.stack[len(s.stack)-k]
}

// setTop overwrites the top operand.
func (s *slots[T]) setTop(v T) { s.stack[len(s.stack)-1] = v }

// fill sets every slot to v.
func (s *slots[T]) fill(v T) {
	for i := range s.stack {
		s.stack[i] = v
	}
	for i := range s.locals {
		s.locals[i] = v
	}
}

// step applies the instruction at pc the way every slots pass models it
// unless it says otherwise: LOAD, STORE, DUP, SWAP, SAVESTACK and
// RESTORESTACK move values; any other instruction pops its operands and
// pushes zero values per bytecode.StackEffect. It reports false when the
// tracked stack cannot supply the operands.
func (s *slots[T]) step(p *bytecode.Program, m *bytecode.Method, pc int) bool {
	var zero T
	in := m.Code[pc]
	switch in.Op {
	case bytecode.LOAD:
		s.stack = append(s.stack, s.locals[in.A])
	case bytecode.STORE:
		if len(s.stack) < 1 {
			return false
		}
		s.locals[in.A] = s.top(1)
		s.stack = s.stack[:len(s.stack)-1]
	case bytecode.DUP:
		if len(s.stack) < 1 {
			return false
		}
		s.stack = append(s.stack, s.top(1))
	case bytecode.SWAP:
		if len(s.stack) < 2 {
			return false
		}
		k := len(s.stack)
		s.stack[k-1], s.stack[k-2] = s.stack[k-2], s.stack[k-1]
	case bytecode.SAVESTACK:
		d := int(in.V)
		if len(s.stack) != d {
			return false
		}
		copy(s.locals[in.A:in.A+d], s.stack)
	case bytecode.RESTORESTACK:
		s.stack = append(s.stack, s.locals[in.A:in.A+int(in.V)]...)
	default:
		pops, pushes, _, _, err := bytecode.StackEffect(p, m, pc, in)
		if err != nil || len(s.stack) < pops {
			return false
		}
		s.stack = s.stack[:len(s.stack)-pops]
		for i := 0; i < pushes; i++ {
			s.stack = append(s.stack, zero)
		}
	}
	return true
}

// slotJoin is the join of a slots pass whose values combine slot-wise by
// meet; a stack-shape mismatch (impossible in verified code) is ok=false.
func slotJoin[T comparable](meet func(a, b T) T) func(dst, src *slots[T]) (changed, ok bool) {
	join := func(dst, src []T) (changed bool) {
		for i, v := range src {
			if w := meet(dst[i], v); w != dst[i] {
				dst[i] = w
				changed = true
			}
		}
		return changed
	}
	return func(dst, src *slots[T]) (changed, ok bool) {
		if len(dst.stack) != len(src.stack) || len(dst.locals) != len(src.locals) {
			return false, false
		}
		changed = join(dst.stack, src.stack)
		return join(dst.locals, src.locals) || changed, true
	}
}

// coveredSeed is the handler rule of the slots passes that keep locals
// across an unwind: the target starts with the verifier's entry stack
// depth, every operand the zero value, and the locals folded by meet over
// the reached in-states of the covered range. A handler whose range no
// state reaches seeds nothing.
func coveredSeed[T comparable](mi *methodInfo, meet func(a, b T) T) func(bytecode.Handler, []*slots[T]) *slots[T] {
	return func(h bytecode.Handler, in []*slots[T]) *slots[T] {
		var seed *slots[T]
		for _, st := range in {
			switch {
			case st == nil:
			case seed == nil:
				seed = &slots[T]{stack: make([]T, mi.stack[h.Target]), locals: append([]T(nil), st.locals...)}
			default:
				for i, v := range st.locals {
					seed.locals[i] = meet(seed.locals[i], v)
				}
			}
		}
		return seed
	}
}

// callWork is the call-graph driver: a worklist of method names in which
// a queued method is not queued twice. A pass pushes the methods whose
// state it seeded, then run visits each queued method; the visit pushes
// every method whose state it changed, until none changes.
type callWork struct {
	queue  []string
	queued map[string]bool
}

func (w *callWork) push(name string) {
	if w.queued == nil {
		w.queued = make(map[string]bool)
	}
	if !w.queued[name] {
		w.queued[name] = true
		w.queue = append(w.queue, name)
	}
}

func (w *callWork) run(visit func(name string)) {
	for len(w.queue) > 0 {
		name := w.queue[0]
		w.queue = w.queue[1:]
		w.queued[name] = false
		visit(name)
	}
}
