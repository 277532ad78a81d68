package interp

import (
	"repro/internal/bytecode"
	"repro/internal/heap"
	"repro/internal/simtime"
)

// This file is the reproduction's "optimizing compiler" analog (the Jikes
// RVM optimizing compiler in the paper): methods are pre-decoded into
// threaded code — one closure per instruction with operands captured — so
// the hot path skips instruction fetch and opcode dispatch. Calls and
// returns get dedicated closures with the callee's record bound at compile
// time (compileCall, shared with tier 3). Semantics are identical to the
// switch interpreter (the closures fall back to exec for the other complex
// opcodes); every instruction remains a yield point and every store keeps
// its write barrier, exactly as the paper requires for all compiled code.
//
// Enable with Options.Threaded. The BenchmarkCompilerTiers benchmark
// (bench_test.go) measures the dispatch saving.

// opFunc executes one pre-decoded instruction, updating f.pc itself.
type opFunc func(in *Interp, f *frame)

// compile pre-decodes a method. The result is cached in its record.
func (e *Env) compile(r *methodRec) []opFunc {
	if r.threaded != nil {
		return r.threaded
	}
	m := r.m
	cost := e.Opts.CostPerInstr
	fns := make([]opFunc, len(m.Code))
	for pc, instr := range m.Code {
		// With the race sanitizer on, static accesses take the exec path so
		// the access site gets stamped; all other heap ops already do.
		if e.raceOn && (instr.Op == bytecode.GETSTATIC || instr.Op == bytecode.PUTSTATIC) {
			ins := instr
			fns[pc] = func(in *Interp, f *frame) { in.exec(f, ins) }
			continue
		}
		// Calls and returns stamp their own profiler site.
		if fn := e.compileCall(r, pc, instr, cost); fn != nil {
			fns[pc] = fn
			continue
		}
		fn, dedicated := compileOne(instr, pc, cost)
		if e.profOn && dedicated {
			// Profiling stamps the pc before the instruction body so its
			// tick charges attribute to this site — the threaded-code twin
			// of the stamp at the top of exec. Fallback closures are not
			// wrapped: exec stamps the same pc itself, and wrapping them
			// would stamp it twice per instruction.
			spc, inner := pc, fn
			fn = func(in *Interp, f *frame) {
				in.task.SetProfSite(spc)
				inner(in, f)
			}
		}
		fns[pc] = fn
	}
	if e.profOn {
		e.RT.Config().Profiler.SetFuncTier(m.Name, "threaded")
	}
	r.threaded = fns
	return fns
}

// prologue returns exec's per-instruction prologue for the dedicated
// closure of the instruction at pc: profiler stamp, tick charge, race-site
// stamp. (The branch on the cached env flags is what exec pays too.)
func (e *Env) prologue(mname string, pc int, cost simtime.Ticks) func(*Interp) {
	return func(in *Interp) {
		if in.env.profOn {
			in.task.SetProfSite(pc)
		}
		in.task.Step(cost)
		if in.env.raceOn {
			in.task.SetRaceSite(mname, pc)
		}
	}
}

// compileCall builds the closure of an INVOKE, RETURN or IRETURN in r at
// pc, for both compiled tiers; it returns nil for any other instruction,
// and for an INVOKE of an unknown method, which exec reports when it runs.
// The INVOKE closure holds the callee's record, so a call performs no
// lookup and no allocation.
func (e *Env) compileCall(r *methodRec, pc int, instr bytecode.Instr, cost simtime.Ticks) opFunc {
	switch instr.Op {
	case bytecode.INVOKE:
		callee := r.callee(pc)
		if callee == nil {
			return nil
		}
		head := e.prologue(r.m.Name, pc, cost)
		return func(in *Interp, f *frame) {
			head(in)
			in.invoke(f, callee)
		}
	case bytecode.RETURN:
		head := e.prologue(r.m.Name, pc, cost)
		return func(in *Interp, f *frame) {
			head(in)
			in.returnFrom(f, 0)
		}
	case bytecode.IRETURN:
		head := e.prologue(r.m.Name, pc, cost)
		return func(in *Interp, f *frame) {
			head(in)
			in.returnFrom(f, f.pop())
		}
	}
	return nil
}

// compileOne builds the closure for one instruction. Hot, simple opcodes
// get dedicated closures; everything with non-trivial control flow or
// runtime interaction reuses the interpreter's exec, which is already a
// single call away. dedicated is false for those exec fallbacks, whose
// profiler stamping exec already performs.
func compileOne(instr bytecode.Instr, pc int, cost simtime.Ticks) (fn opFunc, dedicated bool) {
	next := pc + 1
	switch instr.Op {
	case bytecode.NOP:
		return func(in *Interp, f *frame) {
			in.task.Step(cost)
			f.pc = next
		}, true
	case bytecode.CONST:
		v := heap.Word(instr.V)
		return func(in *Interp, f *frame) {
			in.task.Step(cost)
			f.push(v)
			f.pc = next
		}, true
	case bytecode.LOAD:
		idx := instr.A
		return func(in *Interp, f *frame) {
			in.task.Step(cost)
			f.push(f.locals[idx])
			f.pc = next
		}, true
	case bytecode.STORE:
		idx := instr.A
		return func(in *Interp, f *frame) {
			in.task.Step(cost)
			f.locals[idx] = f.pop()
			f.pc = next
		}, true
	case bytecode.DUP:
		return func(in *Interp, f *frame) {
			in.task.Step(cost)
			v := f.pop()
			f.push(v)
			f.push(v)
			f.pc = next
		}, true
	case bytecode.POP:
		return func(in *Interp, f *frame) {
			in.task.Step(cost)
			f.pop()
			f.pc = next
		}, true
	case bytecode.SWAP:
		return func(in *Interp, f *frame) {
			in.task.Step(cost)
			a, b := f.pop(), f.pop()
			f.push(a)
			f.push(b)
			f.pc = next
		}, true
	case bytecode.ADD:
		return func(in *Interp, f *frame) {
			in.task.Step(cost)
			b, a := f.pop(), f.pop()
			f.push(a + b)
			f.pc = next
		}, true
	case bytecode.SUB:
		return func(in *Interp, f *frame) {
			in.task.Step(cost)
			b, a := f.pop(), f.pop()
			f.push(a - b)
			f.pc = next
		}, true
	case bytecode.MUL:
		return func(in *Interp, f *frame) {
			in.task.Step(cost)
			b, a := f.pop(), f.pop()
			f.push(a * b)
			f.pc = next
		}, true
	case bytecode.NEG:
		return func(in *Interp, f *frame) {
			in.task.Step(cost)
			f.push(-f.pop())
			f.pc = next
		}, true
	case bytecode.CMPEQ, bytecode.CMPNE, bytecode.CMPLT, bytecode.CMPLE, bytecode.CMPGT, bytecode.CMPGE:
		op := instr.Op
		return func(in *Interp, f *frame) {
			in.task.Step(cost)
			b, a := f.pop(), f.pop()
			v, _ := arith(op, a, b)
			f.push(v)
			f.pc = next
		}, true
	case bytecode.GOTO:
		target := instr.A
		return func(in *Interp, f *frame) {
			in.task.Step(cost)
			f.pc = target
		}, true
	case bytecode.IFNZ:
		target := instr.A
		return func(in *Interp, f *frame) {
			in.task.Step(cost)
			if f.pop() != 0 {
				f.pc = target
			} else {
				f.pc = next
			}
		}, true
	case bytecode.IFZ:
		target := instr.A
		return func(in *Interp, f *frame) {
			in.task.Step(cost)
			if f.pop() == 0 {
				f.pc = target
			} else {
				f.pc = next
			}
		}, true
	case bytecode.GETSTATIC:
		idx := instr.A
		return func(in *Interp, f *frame) {
			in.task.Step(cost)
			f.push(in.task.ReadStatic(idx))
			f.pc = next
		}, true
	case bytecode.PUTSTATIC:
		idx := instr.A
		return func(in *Interp, f *frame) {
			in.task.Step(cost)
			in.task.WriteStatic(idx, f.pop())
			f.pc = next
		}, true
	case bytecode.SAVESTACK:
		base, d := instr.A, int(instr.V)
		return func(in *Interp, f *frame) {
			in.task.Step(cost)
			for i := 0; i < d; i++ {
				f.locals[base+i] = f.stack[i]
			}
			f.pc = next
		}, true
	case bytecode.RESTORESTACK:
		base, d := instr.A, int(instr.V)
		return func(in *Interp, f *frame) {
			in.task.Step(cost)
			for i := 0; i < d; i++ {
				f.push(f.locals[base+i])
			}
			f.pc = next
		}, true
	default:
		// Everything else (heap object/array access with null checks,
		// monitors, exceptions, natives, waits) keeps the interpreter's
		// implementation.
		ins := instr
		return func(in *Interp, f *frame) {
			in.exec(f, ins)
		}, false
	}
}

// loopThreaded is the threaded-code twin of loop.
func (in *Interp) loopThreaded() {
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
