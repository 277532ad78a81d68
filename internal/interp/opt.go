package interp

import (
	"repro/internal/analysis"
	"repro/internal/bytecode"
	"repro/internal/heap"
	"repro/internal/simtime"
)

// This file is the compiled tier (Options.Tier: TierOpt), the
// reproduction's analog of the Jikes RVM optimizing compiler in the paper:
// each method is compiled at its first activation into fused closure
// streams:
//
//   - maximal straight-line runs of simple opcodes become one closure
//     that steps through a pre-decoded micro-op array, with no dispatch
//     between constituents;
//   - calls, allocations and natives are resolved once at compile time
//     (callee record, class field specs, native function) instead of
//     per-execution name lookups;
//   - monitorenter sites whose sections the static analysis proved
//     non-revocable compile to a specialized entry that fuses the enter
//     with the pre-mark — no per-execution fact lookup, no revocability
//     bookkeeping — and the region's SAVESTACK, whose RESTORESTACK can
//     only run under a rollback that can never target the section,
//     compiles to a charge-only no-op.
//
// Every paper semantic is preserved: each fused constituent still charges
// its cost through Step — every original instruction boundary remains a
// yield point with identical quantum-expiry timing, and a pure run that
// provably passes no acting yield point charges once (see fuse) — f.pc is
// stamped wherever a constituent can yield or fault, so fault pcs and
// rollback dispatch are unchanged, every store keeps its write barrier, and
// barrier elision remains exactly the statically-proven RAW opcode set
// produced by rewrite.ApplyStaticElision. The tier-equivalence property
// tests pin heap/Stats/clock equivalence with exec over every example
// program.

// opFunc executes one compiled instruction (or fused run), updating f.pc
// itself.
type opFunc func(in *Interp, f *frame)

// execOp is the compiled tier's fallback for cold opcodes and the interior
// pcs of a fused run: the interpreter's implementation of the instruction
// at f.pc, which stamps its own profiler site. One shared function, so
// compiling a method allocates no closure per fallback pc.
func execOp(in *Interp, f *frame) { in.exec(f, f.m.Code[f.pc]) }

// fusedCode returns r's compiled code, compiling it at the first
// activation.
func (e *Env) fusedCode(r *methodRec) []opFunc {
	if r.fused == nil {
		r.fused = e.compileOpt(r)
		if e.profOn {
			e.RT.Config().Profiler.SetFuncTier(r.m.Name, "opt")
		}
	}
	return r.fused
}

// loopCompiled is the compiled-code twin of loop.
func (in *Interp) loopCompiled() {
	for len(in.frames) > 0 && in.err == nil {
		f := in.top()
		if f.pc < 0 || f.pc >= len(f.fns) {
			in.fail("%s: pc %d out of range", f.m.Name, f.pc)
			return
		}
		f.fns[f.pc](in, f)
	}
	in.done = true
}

// prologue is exec's per-instruction prologue for the dedicated closure
// of the instruction at f.pc: profiler stamp, tick charge, race-site stamp.
func (in *Interp) prologue(f *frame) {
	if in.env.profOn {
		in.task.SetProfSite(f.pc)
	}
	if c := in.env.Opts.CostPerInstr; !in.task.TryStep(c) {
		in.task.Step(c)
	}
	if in.env.raceOn {
		in.task.SetRaceSite(f.m.Name, f.pc)
	}
}

// fusable reports whether op may join a fused straight-line run: simple
// stack/local/static operations with no control transfer out of the
// method. DIV and MOD are included — their ArithmeticException aborts the
// fused closure exactly like exec's early return.
func fusable(op bytecode.Op) bool {
	switch op {
	case bytecode.NOP, bytecode.CONST, bytecode.LOAD, bytecode.STORE,
		bytecode.DUP, bytecode.POP, bytecode.SWAP,
		bytecode.ADD, bytecode.SUB, bytecode.MUL, bytecode.DIV, bytecode.MOD, bytecode.NEG,
		bytecode.CMPEQ, bytecode.CMPNE, bytecode.CMPLT, bytecode.CMPLE,
		bytecode.CMPGT, bytecode.CMPGE,
		bytecode.GETSTATIC, bytecode.PUTSTATIC,
		bytecode.SAVESTACK, bytecode.RESTORESTACK:
		return true
	}
	return false
}

// elidedSavestacks returns the pcs of SAVESTACK instructions proven dead:
// their region's section is statically non-revocable, so no rollback can
// ever target the region and the spill slots the SAVESTACK fills are only
// read by the region's (unreachable) RESTORESTACK. The tick charge is
// kept — the instruction still executes as a charge-only no-op. Each
// elision is a discharged proof obligation: a fact without a matching
// dead-savestack certificate is never elided (and NewEnv already rejected
// the fact set as a hard error).
func (e *Env) elidedSavestacks(m *bytecode.Method) map[int]bool {
	facts := e.Opts.Facts
	if facts == nil || !e.Opts.Rewritten {
		return nil
	}
	var dead map[int]bool
	for _, r := range m.Regions {
		s := facts.SectionAt(m.Name, r.EnterPC+1)
		if s == nil || !s.NonRevocable {
			continue
		}
		spc := r.EnterPC - 1
		if spc < 0 || m.Code[spc].Op != bytecode.SAVESTACK {
			continue
		}
		if facts.RequireCert(m.Name, spc, analysis.CertDeadSavestack) != nil {
			continue
		}
		if dead == nil {
			dead = map[int]bool{}
		}
		dead[spc] = true
	}
	return dead
}

// compileOpt builds the fused code for a method.
func (e *Env) compileOpt(r *methodRec) []opFunc {
	m := r.m
	cost := e.Opts.CostPerInstr
	code := m.Code
	fns := make([]opFunc, len(code))

	// Leaders start a new fused run: jump targets and handler entries.
	leader := make([]bool, len(code)+1)
	for _, instr := range code {
		switch instr.Op {
		case bytecode.GOTO, bytecode.IFZ, bytecode.IFNZ:
			if instr.A >= 0 && instr.A < len(leader) {
				leader[instr.A] = true
			}
		}
	}
	for _, h := range m.Handlers {
		if h.Target >= 0 && h.Target < len(leader) {
			leader[h.Target] = true
		}
	}

	deadSaves := e.elidedSavestacks(m)

	for pc := 0; pc < len(code); {
		instr := code[pc]
		if fusable(instr.Op) {
			end := pc + 1
			for end < len(code) && fusable(code[end].Op) && !leader[end] {
				end++
			}
			// Absorb the following non-fusable instruction as the run's
			// terminator (unless it is a jump target, which needs its own
			// dispatch entry): the branch/call/return that ends a basic
			// block executes in the same dispatch as the straight-line code
			// leading up to it, instead of a round trip through the
			// dispatch loop.
			var term opFunc
			termEnd := end
			if end < len(code) && !leader[end] {
				term = e.compileOptOne(r, end, code[end], cost)
				termEnd = end + 1
			}
			fns[pc] = e.fuse(m, pc, end, term, deadSaves)
			// Interior pcs are not leaders, so compiled dispatch never
			// lands on them; keep the table total with exec fallbacks.
			for q := pc + 1; q < end; q++ {
				fns[q] = execOp
			}
			if term != nil {
				fns[end] = term
			}
			pc = termEnd
			continue
		}
		fns[pc] = e.compileOptOne(r, pc, instr, cost)
		pc++
	}
	return fns
}

// microOp is a fused run's pre-decoded constituent: 16 bytes (vs ~40 for
// bytecode.Instr, whose string operand fused opcodes never need), so long
// runs stay within a couple of cache lines.
type microOp struct {
	op bytecode.Op
	a  int32
	v  int64
}

// fuse compiles code[start:end] — a maximal straight-line run of simple
// opcodes — into one superinstruction closure, with term (the compiled
// closure of the block-ending instruction at pc end, when non-nil) run in
// the same dispatch. Each constituent keeps its own pc stamp, profiler
// stamp and Step charge, so yield points, fault pcs and attribution are
// bit-identical to the other tiers; only the dispatch between constituents
// is gone.
//
// A pure run — no static access (a barrier, which reads the clock and
// may yield) and no audited elision (a callback that could) — whose whole
// cost is below the task's headroom charges once instead: no
// constituent's yield point could act, nothing in the run reads the
// clock, so one charge at the end (or (i+1)·cost at a DIV/MOD fault at
// constituent i) leaves every tick, switch point and counter exactly as
// the per-constituent charges would.
func (e *Env) fuse(m *bytecode.Method, start, end int, term opFunc, deadSaves map[int]bool) opFunc {
	audit := e.Opts.ElisionAudit
	ops := make([]microOp, end-start)
	pure := true
	for i, instr := range m.Code[start:end] {
		switch {
		case deadSaves[start+i] && instr.Op == bytecode.SAVESTACK:
			// Statically dead spill: same tick charge as the SAVESTACK it
			// replaces, no stack copy.
			ops[i] = microOp{op: bytecode.NOP}
			pure = pure && audit == nil
			continue
		case instr.Op == bytecode.GETSTATIC || instr.Op == bytecode.PUTSTATIC:
			pure = false
		}
		ops[i] = microOp{op: instr.Op, a: int32(instr.A), v: instr.V}
	}
	cost := e.Opts.CostPerInstr
	// runCost overflows only for absurd costs, which then never fit.
	runCost := cost * simtime.Ticks(len(ops))
	if runCost/simtime.Ticks(len(ops)) != cost {
		pure = false
	}
	mname := m.Name
	profOn, raceOn := e.profOn, e.raceOn
	after := end

	return func(in *Interp, f *frame) {
		t := in.task
		batch := pure && uint64(runCost) < uint64(t.Headroom())
		pc := start
		for i := range ops {
			op := &ops[i]
			if !batch {
				f.pc = pc
				if profOn {
					t.SetProfSite(pc)
				}
				if !t.TryStep(cost) {
					t.Step(cost)
				}
			}
			switch op.op {
			case bytecode.NOP:
				if audit != nil && deadSaves[pc] {
					audit(analysis.CertDeadSavestack, mname, pc)
				}
			case bytecode.CONST:
				f.push(heap.Word(op.v))
			case bytecode.LOAD:
				f.push(f.locals[op.a])
			case bytecode.STORE:
				f.locals[op.a] = f.pop()
			case bytecode.DUP:
				v := f.pop()
				f.push(v)
				f.push(v)
			case bytecode.POP:
				f.pop()
			case bytecode.SWAP:
				a, b := f.pop(), f.pop()
				f.push(a)
				f.push(b)
			case bytecode.ADD:
				b, a := f.pop(), f.pop()
				f.push(a + b)
			case bytecode.SUB:
				b, a := f.pop(), f.pop()
				f.push(a - b)
			case bytecode.MUL:
				b, a := f.pop(), f.pop()
				f.push(a * b)
			case bytecode.DIV, bytecode.MOD:
				b, a := f.pop(), f.pop()
				if b == 0 {
					if batch {
						t.Charge(simtime.Ticks(i+1) * cost)
						f.pc = pc
					}
					in.raiseUser("ArithmeticException")
					return
				}
				if op.op == bytecode.DIV {
					f.push(a / b)
				} else {
					f.push(a % b)
				}
			case bytecode.NEG:
				f.push(-f.pop())
			case bytecode.CMPEQ, bytecode.CMPNE, bytecode.CMPLT, bytecode.CMPLE,
				bytecode.CMPGT, bytecode.CMPGE:
				b, a := f.pop(), f.pop()
				v, _ := arith(op.op, a, b)
				f.push(v)
			case bytecode.GETSTATIC:
				if raceOn {
					t.SetRaceSite(mname, pc)
				}
				f.push(t.ReadStatic(int(op.a)))
			case bytecode.PUTSTATIC:
				if raceOn {
					t.SetRaceSite(mname, pc)
				}
				t.WriteStatic(int(op.a), f.pop())
			case bytecode.SAVESTACK:
				d := int(op.v)
				for j := 0; j < d; j++ {
					f.locals[int(op.a)+j] = f.stack[j]
				}
			case bytecode.RESTORESTACK:
				d := int(op.v)
				for j := 0; j < d; j++ {
					f.push(f.locals[int(op.a)+j])
				}
			}
			pc++
		}
		if batch {
			t.Charge(runCost)
		}
		// after is the terminator's pc (or the next leader's, with no
		// terminator); term stamps its own profiler site and advances f.pc
		// itself, exactly as it would when dispatched from the loop.
		f.pc = after
		if term != nil {
			term(in, f)
		}
	}
}

// compileConfinedElision builds the compiled closure for a certified
// thread-confined MONITORENTER or MONITOREXIT: the whole monitor operation
// is a charge-only no-op — the ref is popped and null-checked for NPE
// parity, the elision is counted and audited, and control falls through.
// The certificate check happened at plan-build time (Env.confinedIn), so
// the closure itself carries no fact lookup.
func (e *Env) compileConfinedElision(mname string, pc int) opFunc {
	next := pc + 1
	return func(in *Interp, f *frame) {
		in.prologue(f)
		if _, ok := in.object(f.pop()); !ok {
			return
		}
		in.task.CountConfinedElision()
		if audit := in.env.Opts.ElisionAudit; audit != nil {
			audit(analysis.CertConfined, mname, pc)
		}
		f.pc = next
	}
}

// compileOptOne builds the compiled closure for one non-fusable
// instruction: compile-time-resolved where the operand allows it, a
// dedicated closure for branches, exec fallback for the cold rest.
// Every dedicated closure mirrors exec's hook order exactly — profiler
// stamp, Step, race-site stamp, body.
func (e *Env) compileOptOne(r *methodRec, pc int, instr bytecode.Instr, cost simtime.Ticks) opFunc {
	m := r.m
	next := pc + 1
	mname := m.Name
	switch instr.Op {
	case bytecode.INVOKE:
		// The closure holds the callee's record, so a call performs no
		// lookup and no allocation. An unknown name is left to exec, which
		// reports it when the call runs.
		callee := r.callee(pc)
		if callee == nil {
			break
		}
		return func(in *Interp, f *frame) {
			in.prologue(f)
			in.invoke(f, callee)
		}
	case bytecode.RETURN:
		return func(in *Interp, f *frame) {
			in.prologue(f)
			in.returnFrom(f, 0)
		}
	case bytecode.IRETURN:
		return func(in *Interp, f *frame) {
			in.prologue(f)
			in.returnFrom(f, f.pop())
		}

	case bytecode.GOTO, bytecode.IFZ, bytecode.IFNZ:
		// Branches touch no heap, so unlike exec they skip the race-site
		// stamp.
		target := instr.A
		var fn opFunc
		switch instr.Op {
		case bytecode.GOTO:
			fn = func(in *Interp, f *frame) {
				if !in.task.TryStep(cost) {
					in.task.Step(cost)
				}
				f.pc = target
			}
		case bytecode.IFNZ:
			fn = func(in *Interp, f *frame) {
				if !in.task.TryStep(cost) {
					in.task.Step(cost)
				}
				if f.pop() != 0 {
					f.pc = target
				} else {
					f.pc = next
				}
			}
		default:
			fn = func(in *Interp, f *frame) {
				if !in.task.TryStep(cost) {
					in.task.Step(cost)
				}
				if f.pop() == 0 {
					f.pc = target
				} else {
					f.pc = next
				}
			}
		}
		if e.profOn {
			inner := fn
			fn = func(in *Interp, f *frame) {
				in.task.SetProfSite(pc)
				inner(in, f)
			}
		}
		return fn

	case bytecode.GETFIELD:
		idx := instr.A
		return func(in *Interp, f *frame) {
			in.prologue(f)
			o, ok := in.object(f.pop())
			if !ok {
				return
			}
			if idx >= o.NumFields() {
				in.fail("%s: field %d out of range on %v", mname, idx, o)
				return
			}
			f.push(in.task.ReadField(o, idx))
			f.pc = next
		}
	case bytecode.PUTFIELD:
		idx := instr.A
		return func(in *Interp, f *frame) {
			in.prologue(f)
			v := f.pop()
			o, ok := in.object(f.pop())
			if !ok {
				return
			}
			if idx >= o.NumFields() {
				in.fail("%s: field %d out of range on %v", mname, idx, o)
				return
			}
			in.task.WriteField(o, idx, v)
			f.pc = next
		}
	case bytecode.ALOAD:
		return func(in *Interp, f *frame) {
			in.prologue(f)
			idx := f.pop()
			a, ok := in.array(f.pop())
			if !ok {
				return
			}
			if idx < 0 || int(idx) >= a.Len() {
				in.raiseUser("ArrayIndexOutOfBoundsException")
				return
			}
			f.push(in.task.ReadElem(a, int(idx)))
			f.pc = next
		}
	case bytecode.ASTORE:
		return func(in *Interp, f *frame) {
			in.prologue(f)
			v := f.pop()
			idx := f.pop()
			a, ok := in.array(f.pop())
			if !ok {
				return
			}
			if idx < 0 || int(idx) >= a.Len() {
				in.raiseUser("ArrayIndexOutOfBoundsException")
				return
			}
			in.task.WriteElem(a, int(idx), v)
			f.pc = next
		}
	case bytecode.ARRAYLEN:
		return func(in *Interp, f *frame) {
			in.prologue(f)
			a, ok := in.array(f.pop())
			if !ok {
				return
			}
			f.push(heap.Word(a.Len()))
			f.pc = next
		}

	// Raw stores — the statically elided write barrier. The elided set is
	// exactly what rewrite.ApplyStaticElision rewrote to RAW opcodes; the
	// tier only removes the exec dispatch around the plain store.
	case bytecode.PUTFIELDRAW:
		idx := instr.A
		costWrite := e.RT.Config().CostWrite
		audit := e.Opts.ElisionAudit
		return func(in *Interp, f *frame) {
			in.prologue(f)
			v := f.pop()
			o, ok := in.object(f.pop())
			if !ok {
				return
			}
			if idx >= o.NumFields() {
				in.fail("%s: field %d out of range on %v", mname, idx, o)
				return
			}
			in.task.Step(costWrite)
			in.task.CountRawStore()
			if audit != nil {
				audit(analysis.CertElideBarrier, mname, pc)
			}
			o.Set(idx, v)
			in.task.RaceRawWriteField(o, idx)
			f.pc = next
		}
	case bytecode.PUTSTATICRAW:
		idx := instr.A
		costWrite := e.RT.Config().CostWrite
		audit := e.Opts.ElisionAudit
		return func(in *Interp, f *frame) {
			in.prologue(f)
			in.task.Step(costWrite)
			in.task.CountRawStore()
			if audit != nil {
				audit(analysis.CertElideBarrier, mname, pc)
			}
			in.env.RT.Heap().SetStatic(idx, f.pop())
			in.task.RaceRawWriteStatic(idx)
			f.pc = next
		}
	case bytecode.ASTORERAW:
		costWrite := e.RT.Config().CostWrite
		audit := e.Opts.ElisionAudit
		return func(in *Interp, f *frame) {
			in.prologue(f)
			v := f.pop()
			idx := f.pop()
			a, ok := in.array(f.pop())
			if !ok {
				return
			}
			if idx < 0 || int(idx) >= a.Len() {
				in.raiseUser("ArrayIndexOutOfBoundsException")
				return
			}
			in.task.Step(costWrite)
			in.task.CountRawStore()
			if audit != nil {
				audit(analysis.CertElideBarrier, mname, pc)
			}
			a.Set(int(idx), v)
			in.task.RaceRawWriteElem(a, int(idx))
			f.pc = next
		}

	case bytecode.NEWOBJ:
		// Inline cache: class and field specs resolved once. AllocObject
		// copies the spec values, so the slice is safely shared.
		cls, ok := e.Prog.Class(instr.S)
		if !ok {
			cls = &bytecode.Class{Name: instr.S}
		}
		specs := make([]heap.FieldSpec, len(cls.Fields))
		for i, fd := range cls.Fields {
			specs[i] = heap.FieldSpec{Name: fd.Name, Volatile: fd.Volatile, Init: heap.Word(fd.Init)}
		}
		factsOn := e.Opts.Facts != nil
		class := cls
		return func(in *Interp, f *frame) {
			in.prologue(f)
			o := in.env.RT.Heap().AllocObject(class.Name, specs...)
			ref := heap.Word(o.ID())
			in.env.objects[ref] = o
			in.env.classOf[ref] = class
			if factsOn {
				in.task.RegisterAllocObject(o)
			}
			f.push(ref)
			f.pc = next
		}
	case bytecode.NEWARR:
		factsOn := e.Opts.Facts != nil
		return func(in *Interp, f *frame) {
			in.prologue(f)
			n := f.pop()
			if n < 0 {
				in.raiseUser("NegativeArraySizeException")
				return
			}
			ref := in.env.NewArray(int(n))
			if factsOn {
				if a, ok := in.env.arrays[ref]; ok {
					in.task.RegisterAllocArray(a)
				}
			}
			f.push(ref)
			f.pc = next
		}

	case bytecode.NATIVE:
		fn, ok := e.natives[instr.S]
		if !ok {
			break // late registration or error: exec resolves at runtime
		}
		name, nargs := instr.S, instr.A
		return func(in *Interp, f *frame) {
			in.prologue(f)
			args := make([]heap.Word, nargs)
			for i := nargs - 1; i >= 0; i-- {
				args[i] = f.pop()
			}
			var ret heap.Word
			in.task.Native(name, func() { ret = fn(in.env, in.task, args) })
			f.push(ret)
			f.pc = next
		}

	case bytecode.MONITORENTER:
		// The section fact and region index are resolved at compile time;
		// statically non-revocable sections take the specialized entry
		// that skips the per-execution lookup chain and fuses the
		// pre-mark into the enter. The specialization is a discharged
		// proof obligation: a non-revocable fact without a matching
		// certificate compiles to a hard error, never to a silent
		// specialization.
		if e.confinedIn(m)[pc] == confinedEnter {
			return e.compileConfinedElision(mname, pc)
		}
		regionIdx := e.regionIndex(m, pc)
		rewritten := e.Opts.Rewritten
		nonRev := false
		var nonRevReason string
		if facts := e.Opts.Facts; facts != nil {
			if s := facts.SectionAt(mname, pc); s != nil && s.NonRevocable {
				if err := facts.RequireCert(mname, pc, analysis.CertNonRevocable); err != nil {
					certErr := err
					return func(in *Interp, f *frame) { in.fail("%v", certErr) }
				}
				nonRev, nonRevReason = true, s.ReasonSummary()
			}
		}
		dlOn := e.dlOn
		return func(in *Interp, f *frame) {
			in.prologue(f)
			mon, ok := in.monitorFor(f.pop())
			if !ok {
				return
			}
			depth := in.task.EngineFrameDepth()
			if dlOn {
				in.task.SetLockSite(mname, pc)
			}
			if nonRev {
				in.task.EngineEnterNonRevocable(mon, nonRevReason)
			} else {
				in.task.EngineEnter(mon)
			}
			if !rewritten {
				in.task.MarkIrrevocable("unrewritten bytecode")
			}
			f.syncs = append(f.syncs, activeSync{staticIdx: regionIdx, mon: mon, coreDepth: depth})
			f.pc = next
		}
	case bytecode.MONITOREXIT:
		if e.confinedIn(m)[pc] == confinedExit {
			return e.compileConfinedElision(mname, pc)
		}
		return func(in *Interp, f *frame) {
			in.prologue(f)
			mon, ok := in.monitorFor(f.pop())
			if !ok {
				return
			}
			if len(f.syncs) == 0 || f.syncs[len(f.syncs)-1].mon != mon {
				in.fail("%s@%d: monitorexit does not match innermost monitorenter", mname, pc)
				return
			}
			f.syncs = f.syncs[:len(f.syncs)-1]
			in.task.EngineExit(mon)
			f.pc = next
		}

	case bytecode.WORK:
		return func(in *Interp, f *frame) {
			in.prologue(f)
			in.task.Work(simtime.Ticks(f.pop()))
			f.pc = next
		}
	case bytecode.SLEEP:
		return func(in *Interp, f *frame) {
			in.prologue(f)
			in.task.Sleep(simtime.Ticks(f.pop()))
			f.pc = next
		}
	}

	// Cold rest (WAIT, NOTIFY, THROW, RETHROW, CHECKTARGET, SPAWN,
	// unresolved references): the interpreter's implementation.
	return execOp
}
