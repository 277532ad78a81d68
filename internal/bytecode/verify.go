package bytecode

import "fmt"

// VerifyError describes a verification failure.
type VerifyError struct {
	Method string
	PC     int
	Msg    string
}

func (e *VerifyError) Error() string {
	if e.PC >= 0 {
		return fmt.Sprintf("bytecode: %s@%d: %s", e.Method, e.PC, e.Msg)
	}
	return fmt.Sprintf("bytecode: %s: %s", e.Method, e.Msg)
}

// Verify checks the whole program and computes every method's MaxStack.
// It validates jump targets, local indices, symbol references, stack
// discipline (no underflow, consistent depth at merge points), handler
// ranges, and MONITORENTER/MONITOREXIT balance along every control-flow
// path (see MonitorDepths).
func Verify(p *Program) error {
	for _, m := range p.Methods {
		if _, err := VerifyMethod(p, m); err != nil {
			return err
		}
		if _, err := MonitorDepths(p, m); err != nil {
			return err
		}
	}
	return VerifyThreads(p)
}

// VerifyThreads checks the thread declarations: each runs a defined
// zero-argument method at a priority in 1..10.
func VerifyThreads(p *Program) error {
	for _, t := range p.Threads {
		mt, ok := p.Method(t.Method)
		if !ok {
			return &VerifyError{Method: t.Method, PC: -1, Msg: fmt.Sprintf("thread %q runs undefined method", t.Name)}
		}
		if mt.Args != 0 {
			return &VerifyError{Method: t.Method, PC: -1, Msg: fmt.Sprintf("thread entry method takes %d args, want 0", mt.Args)}
		}
		if t.Priority < 1 || t.Priority > 10 {
			return &VerifyError{Method: t.Method, PC: -1, Msg: fmt.Sprintf("thread %q priority %d out of range", t.Name, t.Priority)}
		}
	}
	return nil
}

// VerifyMethod checks one method and returns the stack depth before each
// instruction (-1 for unreachable code). It also sets m.MaxStack.
func VerifyMethod(p *Program, m *Method) ([]int, error) {
	n := len(m.Code)
	if n == 0 {
		return nil, &VerifyError{Method: m.Name, PC: -1, Msg: "empty body"}
	}
	if m.Locals < m.Args {
		return nil, &VerifyError{Method: m.Name, PC: -1, Msg: fmt.Sprintf("locals %d < args %d", m.Locals, m.Args)}
	}
	fail := func(pc int, f string, args ...any) error {
		return &VerifyError{Method: m.Name, PC: pc, Msg: fmt.Sprintf(f, args...)}
	}

	for _, h := range m.Handlers {
		if h.From < 0 || h.To > n || h.From >= h.To {
			return nil, fail(-1, "handler range [%d,%d) invalid", h.From, h.To)
		}
		if h.Target < 0 || h.Target >= n {
			return nil, fail(-1, "handler target %d out of range", h.Target)
		}
	}

	depth := make([]int, n)
	for i := range depth {
		depth[i] = -1
	}
	type work struct{ pc, d int }
	queue := []work{{0, 0}}
	// Handler targets are reachable with their own entry depth.
	for _, h := range m.Handlers {
		d := 1 // user exception pushed
		if h.Catch == RollbackClass {
			d = 0 // rollback dispatch clears the stack
		}
		queue = append(queue, work{h.Target, d})
	}

	maxStack := 0
	push := func(q []work, pc, d int) ([]work, error) {
		if pc < 0 || pc >= n {
			return q, fail(pc, "jump target out of range")
		}
		if depth[pc] == -1 {
			depth[pc] = d
			return append(q, work{pc, d}), nil
		}
		if depth[pc] != d {
			return q, fail(pc, "inconsistent stack depth at merge: %d vs %d", depth[pc], d)
		}
		return q, nil
	}

	for len(queue) > 0 {
		w := queue[0]
		queue = queue[1:]
		if depth[w.pc] == -1 {
			depth[w.pc] = w.d
		} else if depth[w.pc] != w.d {
			return nil, fail(w.pc, "inconsistent stack depth: %d vs %d", depth[w.pc], w.d)
		}
		pc, d := w.pc, w.d
		for {
			in := m.Code[pc]
			pops, pushes, terminal, branch, err := effect(p, m, pc, in, fail)
			if err != nil {
				return nil, err
			}
			if d < pops {
				return nil, fail(pc, "stack underflow: %v needs %d, have %d", in.Op, pops, d)
			}
			nd := d - pops + pushes
			if in.Op == SAVESTACK {
				if d != int(in.V) {
					return nil, fail(pc, "savestack expects depth %d, have %d", in.V, d)
				}
				// Copies to locals; stack unchanged.
			}
			if in.Op == RESTORESTACK {
				nd = d + int(in.V) // rebuilds V entries from locals
			}
			if nd > maxStack {
				maxStack = nd
			}
			if branch {
				if queue, err = push(queue, in.A, nd); err != nil {
					return nil, err
				}
			}
			if terminal {
				break
			}
			next := pc + 1
			if in.Op == GOTO {
				next = in.A
			}
			if next >= n {
				return nil, fail(pc, "control falls off the end")
			}
			if depth[next] != -1 {
				if depth[next] != nd {
					return nil, fail(next, "inconsistent stack depth: %d vs %d", depth[next], nd)
				}
				break // already explored
			}
			depth[next] = nd
			pc, d = next, nd
		}
	}
	m.MaxStack = maxStack
	return depth, nil
}

// StackEffect reports the operand-stack effect of one instruction plus its
// control-flow classification: terminal means control does not fall through
// (GOTO is not terminal — its target is the fall-through successor), branch
// means in.A is an additional successor. SAVESTACK and RESTORESTACK report
// zero effect; their depth semantics (assert depth V / rebuild V entries)
// are the caller's to model, as the verifier does. Exported for the static
// analyses in internal/analysis.
func StackEffect(p *Program, m *Method, pc int, in Instr) (pops, pushes int, terminal, branch bool, err error) {
	fail := func(pc int, f string, args ...any) error {
		return &VerifyError{Method: m.Name, PC: pc, Msg: fmt.Sprintf(f, args...)}
	}
	return effect(p, m, pc, in, fail)
}

// effect returns the stack effect of one instruction plus control-flow
// classification: terminal means control does not fall through (GOTO falls
// through to its target, handled by the caller); branch means in.A is an
// additional successor.
func effect(p *Program, m *Method, pc int, in Instr, fail func(int, string, ...any) error) (pops, pushes int, terminal, branch bool, err error) {
	switch in.Op {
	case NOP, CHECKTARGET:
		if in.Op == CHECKTARGET {
			return 0, 1, false, false, nil
		}
		return 0, 0, false, false, nil
	case CONST:
		return 0, 1, false, false, nil
	case LOAD:
		if in.A < 0 || in.A >= m.Locals {
			return 0, 0, false, false, fail(pc, "local %d out of range (%d locals)", in.A, m.Locals)
		}
		return 0, 1, false, false, nil
	case STORE:
		if in.A < 0 || in.A >= m.Locals {
			return 0, 0, false, false, fail(pc, "local %d out of range (%d locals)", in.A, m.Locals)
		}
		return 1, 0, false, false, nil
	case DUP:
		return 1, 2, false, false, nil
	case POP:
		return 1, 0, false, false, nil
	case SWAP:
		return 2, 2, false, false, nil
	case ADD, SUB, MUL, DIV, MOD, CMPEQ, CMPNE, CMPLT, CMPLE, CMPGT, CMPGE:
		return 2, 1, false, false, nil
	case NEG:
		return 1, 1, false, false, nil
	case GOTO:
		// Fall-through to in.A is modelled by the caller.
		if in.A < 0 || in.A >= len(m.Code) {
			return 0, 0, false, false, fail(pc, "goto target %d out of range", in.A)
		}
		return 0, 0, false, false, nil
	case IFNZ, IFZ:
		if in.A < 0 || in.A >= len(m.Code) {
			return 0, 0, false, false, fail(pc, "branch target %d out of range", in.A)
		}
		return 1, 0, false, true, nil
	case NEWOBJ:
		if _, ok := p.Class(in.S); !ok {
			return 0, 0, false, false, fail(pc, "unknown class %q", in.S)
		}
		return 0, 1, false, false, nil
	case NEWARR:
		return 1, 1, false, false, nil
	case ARRAYLEN:
		return 1, 1, false, false, nil
	case GETFIELD:
		return 1, 1, false, false, nil
	case PUTFIELD, PUTFIELDRAW:
		return 2, 0, false, false, nil
	case GETSTATIC:
		if in.A < 0 || in.A >= len(p.Statics) {
			return 0, 0, false, false, fail(pc, "static %d out of range", in.A)
		}
		return 0, 1, false, false, nil
	case PUTSTATIC, PUTSTATICRAW:
		if in.A < 0 || in.A >= len(p.Statics) {
			return 0, 0, false, false, fail(pc, "static %d out of range", in.A)
		}
		return 1, 0, false, false, nil
	case ALOAD:
		return 2, 1, false, false, nil
	case ASTORE, ASTORERAW:
		return 3, 0, false, false, nil
	case MONITORENTER, MONITOREXIT, WAIT, NOTIFY, NOTIFYALL:
		return 1, 0, false, false, nil
	case INVOKE:
		callee, ok := p.Method(in.S)
		if !ok {
			return 0, 0, false, false, fail(pc, "unknown method %q", in.S)
		}
		pushes := 0
		if callee.Returns {
			pushes = 1
		}
		return callee.Args, pushes, false, false, nil
	case RETURN:
		if m.Returns {
			return 0, 0, false, false, fail(pc, "return in value-returning method")
		}
		return 0, 0, true, false, nil
	case IRETURN:
		if !m.Returns {
			return 0, 0, false, false, fail(pc, "ireturn in void method")
		}
		return 1, 0, true, false, nil
	case THROW:
		if in.S == "" || in.S == RollbackClass {
			return 0, 0, false, false, fail(pc, "throw needs a user exception class")
		}
		return 0, 0, true, false, nil
	case RETHROW:
		return 0, 0, true, false, nil
	case NATIVE:
		if in.A < 0 {
			return 0, 0, false, false, fail(pc, "negative native arity")
		}
		return in.A, 1, false, false, nil
	case WORK, SLEEP:
		return 1, 0, false, false, nil
	case SPAWN:
		callee, ok := p.Method(in.S)
		if !ok {
			return 0, 0, false, false, fail(pc, "spawn of unknown method %q", in.S)
		}
		if in.A < 1 || in.A > 10 {
			return 0, 0, false, false, fail(pc, "spawn priority %d out of range", in.A)
		}
		return callee.Args, 0, false, false, nil
	case SAVESTACK, RESTORESTACK:
		if in.A < 0 || in.A+int(in.V) > m.Locals {
			return 0, 0, false, false, fail(pc, "%v locals [%d,%d) out of range", in.Op, in.A, in.A+int(in.V))
		}
		return 0, 0, false, false, nil
	default:
		return 0, 0, false, false, fail(pc, "unknown opcode %d", in.Op)
	}
}
