// Package interp executes bytecode programs on the revocation runtime. It
// plays the role of the Jikes RVM baseline compiler in the paper: every
// store goes through the runtime's write barrier, yield points sit at every
// instruction boundary, and the exception dispatch implements the paper's
// modification — a rollback exception ignores every handler (including
// finally blocks and catch(Throwable)) that does not explicitly catch it
// (§3.1.2), while user exceptions keep standard Java semantics.
//
// Synchronized-section re-execution uses the artifacts the rewriter
// injects (§3.1.1): SAVESTACK before each rollback-scope's monitorenter,
// handlers catching the internal rollback exception whose code runs
// CHECKTARGET / RESTORESTACK / GOTO monitorenter, and RETHROW to propagate
// to outer scopes. Programs executed on a Revocation-mode runtime should
// first pass through rewrite.Rewrite; unrewritten programs remain runnable
// because their sections are marked irrevocable at entry.
package interp

import (
	"fmt"
	"io"

	"repro/internal/analysis"
	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/monitor"
	"repro/internal/sched"
	"repro/internal/simtime"
)

// NativeFunc implements a NATIVE opcode. Natives run outside the undo
// machinery; calling one makes the enclosing monitors non-revocable.
type NativeFunc func(e *Env, t *core.Task, args []heap.Word) heap.Word

// Tier selects the execution tier. All tiers are semantically identical —
// same virtual clock, same Stats, same heap — and the property tests pin
// that equivalence over every example program.
type Tier int

const (
	// TierExec is the switch interpreter (the paper's baseline compiler
	// analog).
	TierExec Tier = iota
	// TierThreaded pre-decodes methods into threaded code: one closure
	// per instruction with operands captured.
	TierThreaded
	// TierOpt starts methods on threaded code and, once a deterministic
	// hotness threshold is crossed, recompiles them into fused
	// superinstruction streams specialized against the static facts
	// (compile-time-resolved call/field/class references, statically
	// non-revocable monitorenter, dead SAVESTACK elision). See opt.go.
	TierOpt
)

func (t Tier) String() string {
	switch t {
	case TierExec:
		return "exec"
	case TierThreaded:
		return "threaded"
	case TierOpt:
		return "opt"
	}
	return fmt.Sprintf("tier(%d)", int(t))
}

// ParseTier parses a -tier flag value.
func ParseTier(s string) (Tier, error) {
	switch s {
	case "exec":
		return TierExec, nil
	case "threaded":
		return TierThreaded, nil
	case "opt":
		return TierOpt, nil
	}
	return TierExec, fmt.Errorf("interp: unknown tier %q (want exec, threaded, or opt)", s)
}

// Options configures an Env.
type Options struct {
	// CostPerInstr is the tick charge per executed instruction (default
	// 1); heap operations additionally pay the runtime's barrier costs.
	CostPerInstr simtime.Ticks
	// Out receives the output of the built-in print natives (default:
	// discarded).
	Out io.Writer
	// Rewritten asserts the program went through rewrite.Rewrite, so
	// synchronized sections have rollback scopes and may be revoked.
	// When false, sections are marked irrevocable at entry to keep
	// un-instrumented code safe on a Revocation-mode runtime.
	Rewritten bool
	// Tier selects the execution tier (default TierExec).
	Tier Tier
	// Threaded is the deprecated alias for Tier: TierThreaded. It is
	// honored when Tier is left at its zero value and mirrored back
	// (Threaded = Tier != TierExec) after normalization.
	Threaded bool
	// OptCallThreshold is the TierOpt invocation-count hotness threshold:
	// a method recompiles to fused code at its Nth activation (default 2).
	// Deterministic by construction — the count does not depend on timing.
	OptCallThreshold int
	// OptHotTicks is the TierOpt profile-feed hotness threshold: with a
	// profiler attached, a method whose attributed work ticks
	// (prof.Profiler.FuncWork) reach this value recompiles at its next
	// activation even below OptCallThreshold (default 1000). Virtual-time
	// attribution is deterministic, so tier decisions stay reproducible.
	OptHotTicks int64
	// Facts supplies whole-program static analysis results (from
	// analysis.Analyze over this exact program). When set, monitorenter
	// sites of statically non-revocable sections are pre-marked so they
	// run with zero undo-log entries, and every allocation performed while
	// logging is active gets a whole-allocation undo entry — the runtime
	// support for stores elided by fresh-target proofs.
	//
	// A Facts value whose elisions are not all certificate-backed is
	// rejected by NewEnv — the consumers trust certificates, not the raw
	// fact fields (see analysis.VerifyCertificates).
	Facts *analysis.Facts
	// ElisionAudit, when non-nil, is called for every statically elided
	// operation actually executed — each barrier-free RAW store and each
	// dead-SAVESTACK no-op — with the certificate kind that licensed it.
	// The certificate property test uses it to assert executed elisions ⊆
	// certificates. A nil hook adds one predictable branch.
	ElisionAudit func(kind analysis.CertKind, method string, pc int)
}

// Env is the shared execution environment: the program, the runtime, the
// object registry and the native table. One Env hosts every thread of a
// program; the uniprocessor scheduler serializes access.
type Env struct {
	RT   *core.Runtime
	Prog *bytecode.Program
	Opts Options

	natives map[string]NativeFunc
	objects map[heap.Word]*heap.Object
	arrays  map[heap.Word]*heap.Array
	classOf map[heap.Word]*bytecode.Class

	// regionAt maps (method, monitorenter pc) to the static region index.
	regionAt map[*bytecode.Method]map[int]int

	// recs holds each method's record: activation count, compiled code
	// and resolved call sites. byName indexes the program's records by
	// name, first occurrence winning as with Program.Method; it is only
	// consulted when call sites are resolved, never per activation.
	recs   map[*bytecode.Method]*methodRec
	byName map[string]*methodRec

	// confined caches, per method, the certificate-gated whole-monitor
	// elision plan: pc -> confinedEnter/confinedExit for MONITORENTER/EXIT
	// sites the escape analysis proved thread-confined. A nil map value
	// (still present in the cache) means the method has no elided sites.
	confined map[*bytecode.Method]map[int]int8

	// raceOn caches Config.Race != nil: heap-access instructions then stamp
	// their bytecode site on the task so race reports can name it.
	raceOn bool

	// profOn caches Config.Profiler != nil: every instruction then stamps
	// its pc and every call/return mirrors into the profiler's call tree.
	profOn bool

	// dlOn caches Config.OnDeadlock != nil: monitorenter sites then stamp
	// their bytecode site on the task so wait-for-graph cycle reports can
	// name each edge's acquisition pc.
	dlOn bool

	// spawnCount numbers dynamically spawned threads (SPAWN opcode) so
	// their names are unique and deterministic.
	spawnCount int

	// Printed collects print output when Opts.Out is nil, for tests.
	Printed []heap.Word
}

// NewEnv prepares an environment: statics are defined on the runtime's
// heap in program order, built-in natives are registered.
func NewEnv(rt *core.Runtime, prog *bytecode.Program, opts Options) (*Env, error) {
	if opts.CostPerInstr == 0 {
		opts.CostPerInstr = 1
	}
	if opts.Tier == TierExec && opts.Threaded {
		opts.Tier = TierThreaded // deprecated alias
	}
	opts.Threaded = opts.Tier != TierExec
	if opts.OptCallThreshold == 0 {
		opts.OptCallThreshold = 2
	}
	if opts.OptHotTicks == 0 {
		opts.OptHotTicks = 1000
	}
	if rt.Heap().NumStatics() != 0 {
		return nil, fmt.Errorf("interp: runtime heap already has statics; use a fresh runtime")
	}
	if err := bytecode.Verify(prog); err != nil {
		return nil, err
	}
	if opts.Facts != nil {
		// Hard compile-time gate: every fact a consumer would act on must
		// carry a machine-checked certificate. A tampered or stale Facts
		// value fails here, before any code is compiled against it.
		if err := opts.Facts.VerifyCertificates(); err != nil {
			return nil, err
		}
	}
	e := &Env{
		RT:       rt,
		Prog:     prog,
		Opts:     opts,
		natives:  map[string]NativeFunc{},
		objects:  map[heap.Word]*heap.Object{},
		arrays:   map[heap.Word]*heap.Array{},
		classOf:  map[heap.Word]*bytecode.Class{},
		regionAt: map[*bytecode.Method]map[int]int{},
		recs:     make(map[*bytecode.Method]*methodRec, len(prog.Methods)),
		byName:   make(map[string]*methodRec, len(prog.Methods)),
		confined: map[*bytecode.Method]map[int]int8{},
		raceOn:   rt.Config().Race != nil,
		profOn:   rt.Config().Profiler != nil,
		dlOn:     rt.Config().OnDeadlock != nil,
	}
	for _, m := range prog.Methods {
		r := &methodRec{m: m}
		e.recs[m] = r
		if _, dup := e.byName[m.Name]; !dup {
			e.byName[m.Name] = r
		}
	}
	for _, r := range e.recs {
		e.resolveSites(r)
	}
	for _, s := range prog.Statics {
		rt.Heap().DefineStatic(s.Name, s.Volatile, heap.Word(s.Init))
	}
	e.RegisterNative("print", func(e *Env, t *core.Task, args []heap.Word) heap.Word {
		if e.Opts.Out != nil {
			fmt.Fprintln(e.Opts.Out, args[0])
		} else {
			e.Printed = append(e.Printed, args[0])
		}
		return args[0]
	})
	e.RegisterNative("now", func(e *Env, t *core.Task, args []heap.Word) heap.Word {
		return heap.Word(e.RT.Now())
	})
	e.RegisterNative("threadpriority", func(e *Env, t *core.Task, args []heap.Word) heap.Word {
		return heap.Word(t.Priority())
	})
	return e, nil
}

// RegisterNative installs a native method.
func (e *Env) RegisterNative(name string, fn NativeFunc) { e.natives[name] = fn }

// NewObject allocates an instance of the named class and returns its ref.
func (e *Env) NewObject(class string) (heap.Word, error) {
	cls, ok := e.Prog.Class(class)
	if !ok {
		// Exception classes may be undeclared: allocate a fieldless
		// instance so throw/catch of arbitrary names works.
		cls = &bytecode.Class{Name: class}
	}
	specs := make([]heap.FieldSpec, len(cls.Fields))
	for i, f := range cls.Fields {
		specs[i] = heap.FieldSpec{Name: f.Name, Volatile: f.Volatile, Init: heap.Word(f.Init)}
	}
	o := e.RT.Heap().AllocObject(class, specs...)
	ref := heap.Word(o.ID())
	e.objects[ref] = o
	e.classOf[ref] = cls
	return ref, nil
}

// NewArray allocates an array of n elements and returns its ref.
func (e *Env) NewArray(n int) heap.Word {
	a := e.RT.Heap().AllocArray(n)
	ref := heap.Word(a.ID())
	e.arrays[ref] = a
	return ref
}

// Object resolves an object ref.
func (e *Env) Object(ref heap.Word) (*heap.Object, bool) {
	o, ok := e.objects[ref]
	return o, ok
}

// Array resolves an array ref.
func (e *Env) Array(ref heap.Word) (*heap.Array, bool) {
	a, ok := e.arrays[ref]
	return a, ok
}

// TierCounts reports how many distinct invoked methods currently sit at
// each tier: opt methods run fused code, threaded methods run pre-decoded
// closures (including TierOpt methods still below the hotness threshold),
// and exec methods run on the switch interpreter.
func (e *Env) TierCounts() (exec, threaded, opt int) {
	for _, r := range e.recs {
		switch {
		case r.fused != nil:
			opt++
		case r.threaded != nil:
			threaded++
		case r.calls > 0:
			exec++
		}
	}
	return exec, threaded, opt
}

// methodRec is the Env's record of one method: its activation count, its
// compiled code, and the callee of each of its call sites. Call sites hold
// the callee's record (bound when the code is compiled, or by NewEnv for
// the exec tier), so an activation performs no map operation and no name
// lookup.
type methodRec struct {
	m *bytecode.Method
	// calls counts activations: TierOpt's invocation-count hotness feed
	// and the per-tier method accounting of TierCounts.
	calls int
	// threaded is the pre-decoded code (TierThreaded, and TierOpt below
	// the hotness threshold); fused is TierOpt's code once hot.
	threaded, fused []opFunc
	// callees maps each INVOKE and SPAWN pc to its target's record; nil
	// when m has no call sites, and a nil entry for an unknown name.
	callees []*methodRec
}

// callee returns the record a call site at pc resolved to, or nil.
func (r *methodRec) callee(pc int) *methodRec {
	if pc < len(r.callees) {
		return r.callees[pc]
	}
	return nil
}

// resolveSites binds each INVOKE and SPAWN site of r to its target's
// record through the name index. An unknown name stays nil and fails when
// the site executes, as a name lookup at that point would.
func (e *Env) resolveSites(r *methodRec) {
	for pc, ins := range r.m.Code {
		if ins.Op != bytecode.INVOKE && ins.Op != bytecode.SPAWN {
			continue
		}
		if r.callees == nil {
			r.callees = make([]*methodRec, len(r.m.Code))
		}
		r.callees[pc] = e.byName[ins.S]
	}
}

// rec returns m's record. A method outside the program (callable through
// Env.Call) gets one on first use.
func (e *Env) rec(m *bytecode.Method) *methodRec {
	r, ok := e.recs[m]
	if !ok {
		r = &methodRec{m: m}
		e.recs[m] = r
		e.resolveSites(r)
	}
	return r
}

// regionIndex returns the static sync-region index whose MONITORENTER sits
// at pc, or -1.
func (e *Env) regionIndex(m *bytecode.Method, pc int) int {
	tbl, ok := e.regionAt[m]
	if !ok {
		tbl = make(map[int]int, len(m.Regions))
		for i, r := range m.Regions {
			tbl[r.EnterPC+1] = i // EnterPC is the LOAD; enter follows
		}
		e.regionAt[m] = tbl
	}
	if i, ok := tbl[pc]; ok {
		return i
	}
	return -1
}

// SpawnDeclaredThreads spawns every thread the program declares.
func (e *Env) SpawnDeclaredThreads() error {
	for _, td := range e.Prog.Threads {
		m, ok := e.Prog.Method(td.Method)
		if !ok {
			return fmt.Errorf("interp: thread %q: unknown method %q", td.Name, td.Method)
		}
		method := m
		e.RT.Spawn(td.Name, sched.Priority(td.Priority), func(tk *core.Task) {
			if _, err := e.Call(tk, method, nil); err != nil {
				panic(fmt.Sprintf("interp: thread %s: %v", tk.Name(), err))
			}
		})
	}
	return nil
}

// Call runs a method to completion on the calling task's thread.
func (e *Env) Call(t *core.Task, m *bytecode.Method, args []heap.Word) (heap.Word, error) {
	if len(args) != m.Args {
		return 0, fmt.Errorf("interp: %s wants %d args, got %d", m.Name, m.Args, len(args))
	}
	in := &Interp{env: e, task: t}
	if e.profOn {
		// Nested Call (native re-entry) stacks on the caller's profile
		// frames; popping back to profBase restores them on any exit.
		in.profBase = t.ProfDepth()
	}
	copy(in.pushFrame(e.rec(m)).locals, args)
	return in.Execute()
}

// Run assembles everything: builds an Env over rt, spawns the declared
// threads, and drives the runtime to completion.
func Run(rt *core.Runtime, prog *bytecode.Program, opts Options) (*Env, error) {
	env, err := NewEnv(rt, prog, opts)
	if err != nil {
		return nil, err
	}
	if err := env.SpawnDeclaredThreads(); err != nil {
		return nil, err
	}
	if err := rt.Run(); err != nil {
		return env, err
	}
	return env, nil
}

// ---------------------------------------------------------------------------
// The interpreter proper.

// activeSync is one entered synchronized region instance.
type activeSync struct {
	staticIdx int // index into Method.Regions; -1 when unstructured
	mon       *monitor.Monitor
	coreDepth int
}

// frame is one method activation. Frames are owned by their Interp and
// reused: see pushFrame.
type frame struct {
	m      *bytecode.Method
	rec    *methodRec
	pc     int
	locals []heap.Word
	stack  []heap.Word
	syncs  []activeSync
	// fns is the method's compiled code (TierThreaded and TierOpt).
	fns []opFunc
}

func (f *frame) push(v heap.Word) { f.stack = append(f.stack, v) }

func (f *frame) pop() heap.Word {
	v := f.stack[len(f.stack)-1]
	f.stack = f.stack[:len(f.stack)-1]
	return v
}

// inflight is the exception being dispatched (rollback or user).
type inflight struct {
	rollback bool
	// Rollback state. targetFrame is the live frame holding the target
	// region, or nil once that frame has been popped (see popFrame).
	info         core.RevokeInfo
	targetFrame  *frame
	targetRegion int
	// User-exception state.
	excClass string
	excRef   heap.Word
	// Dispatch cursor.
	faultPC     int
	nextHandler int
}

// Interp executes one thread's activations.
type Interp struct {
	env  *Env
	task *core.Task
	// frames is the activation stack. Its backing array keeps the frames
	// popped off it, which pushFrame reuses.
	frames []*frame

	pending *inflight
	ret     heap.Word
	err     error
	done    bool

	// profBase is the task's profiler call-stack depth when this Interp
	// started; the profiler stack mirrors frames above it.
	profBase int
}

// pushFrame activates r on top of the frame stack and returns the new
// frame, whose locals are all 0; the caller stores the arguments.
//
// The frame object, its locals, operand stack and section list are those
// an earlier pop left past len(in.frames), reused whenever their capacity
// suffices, so a steady-state call allocates nothing. This is safe because
// no *frame is used after its pop: execution always continues from
// in.top(), and the one pointer kept across instructions,
// inflight.targetFrame, is cleared by popFrame when its frame goes.
func (in *Interp) pushFrame(r *methodRec) *frame {
	m := r.m
	r.calls++
	n := len(in.frames)
	if n < cap(in.frames) {
		in.frames = in.frames[:n+1]
	} else {
		in.frames = append(in.frames, nil)
	}
	f := in.frames[n]
	if f == nil {
		f = new(frame)
		in.frames[n] = f
	}
	f.m, f.rec, f.pc = m, r, 0
	if cap(f.locals) < m.Locals {
		f.locals = make([]heap.Word, m.Locals)
	} else {
		f.locals = f.locals[:m.Locals]
		clear(f.locals)
	}
	if cap(f.stack) < m.MaxStack {
		f.stack = make([]heap.Word, 0, m.MaxStack)
	} else {
		f.stack = f.stack[:0]
	}
	f.syncs = f.syncs[:0]
	switch in.env.Opts.Tier {
	case TierThreaded:
		f.fns = in.env.compile(r)
	case TierOpt:
		f.fns = in.env.compileTiered(r)
	}
	if in.env.profOn {
		in.task.ProfPush(m.Name)
	}
	return f
}

// popFrame discards the top frame. A rollback in flight forgets the frame
// as its target, so the next pushFrame can reuse the object without a
// later CHECKTARGET mistaking the new activation for the old one.
func (in *Interp) popFrame() {
	n := len(in.frames) - 1
	if p := in.pending; p != nil && p.targetFrame == in.frames[n] {
		p.targetFrame = nil
	}
	in.frames = in.frames[:n]
	in.profSync()
}

// invoke activates callee with its arguments popped off the caller's
// operand stack. The caller's pc stays at the INVOKE while the callee
// runs, so an exception propagating out of the callee dispatches against
// the call site; returnFrom advances it.
func (in *Interp) invoke(caller *frame, callee *methodRec) {
	f := in.pushFrame(callee)
	for i := callee.m.Args - 1; i >= 0; i-- {
		f.locals[i] = caller.pop()
	}
}

// returnFrom pops f, the top frame, passing v to the caller when f's
// method returns a value and stepping the caller past its INVOKE.
func (in *Interp) returnFrom(f *frame, v heap.Word) {
	if len(f.syncs) != 0 {
		in.fail("%s: return with %d synchronized sections active", f.m.Name, len(f.syncs))
		return
	}
	returns := f.m.Returns
	in.popFrame()
	if len(in.frames) == 0 {
		in.ret = v
		return
	}
	caller := in.top()
	if returns {
		caller.push(v)
	}
	caller.pc++
}

// profSync re-aligns the profiler's call stack with in.frames after any
// frame pop — return, exception unwind, rollback discard, error cleanup.
func (in *Interp) profSync() {
	if in.env.profOn {
		in.task.ProfPopTo(in.profBase + len(in.frames))
	}
}

func (in *Interp) top() *frame { return in.frames[len(in.frames)-1] }

// Execute drives the interpreter to completion, converting delivered
// revocations into the bytecode-level rollback dispatch.
func (in *Interp) Execute() (heap.Word, error) {
	var pendingRevoke *core.RevokeInfo
	for {
		if pendingRevoke != nil {
			info := *pendingRevoke
			pendingRevoke = nil
			again, ok := in.protect(func() { in.beginRollback(info) })
			if ok {
				pendingRevoke = &again
				continue
			}
		}
		if in.done || in.err != nil {
			in.cleanupOnError()
			return in.ret, in.err
		}
		body := in.loop
		if in.env.Opts.Tier != TierExec {
			body = in.loopThreaded
		}
		again, ok := in.protect(body)
		if !ok {
			in.cleanupOnError()
			return in.ret, in.err
		}
		pendingRevoke = &again
	}
}

// cleanupOnError releases the synchronized sections of abandoned frames
// when execution stops with an interpreter error (bad bytecode, uncaught
// condition), so the underlying task is left in a clean state. Updates
// stay committed — an interpreter error is not a rollback.
func (in *Interp) cleanupOnError() {
	if in.err == nil {
		return
	}
	for fi := len(in.frames) - 1; fi >= 0; fi-- {
		f := in.frames[fi]
		for i := len(f.syncs) - 1; i >= 0; i-- {
			in.task.EngineExit(f.syncs[i].mon)
		}
		f.syncs = nil
	}
	in.frames = nil
	in.profSync()
}

// protect runs f, converting a revocation panic into its RevokeInfo.
func (in *Interp) protect(f func()) (info core.RevokeInfo, revoked bool) {
	defer func() {
		if r := recover(); r != nil {
			if ri, ok := core.AsRevocation(r); ok {
				info, revoked = ri, true
				return
			}
			panic(r)
		}
	}()
	f()
	return core.RevokeInfo{}, false
}

// loop runs instructions until every frame returns or an error stops us.
func (in *Interp) loop() {
	for len(in.frames) > 0 && in.err == nil {
		f := in.top()
		if f.pc < 0 || f.pc >= len(f.m.Code) {
			in.err = fmt.Errorf("interp: %s: pc %d out of range", f.m.Name, f.pc)
			return
		}
		in.exec(f, f.m.Code[f.pc])
	}
	in.done = true
}

// fail stops execution with an interpreter error.
func (in *Interp) fail(f string, args ...any) {
	in.err = fmt.Errorf("interp: "+f, args...)
}

// Confined-elision plan markers: the per-method map produced by
// Env.confinedIn tags each elidable pc with the operation it replaces.
const (
	confinedEnter int8 = 1
	confinedExit  int8 = 2
)

// confinedIn resolves (and caches) the whole-monitor elision plan for m:
// every MONITORENTER the escape analysis proved thread-confined, together
// with its bracketing MONITOREXIT pcs, becomes a charge-only no-op. Each
// site is admitted only when the enter and every one of its exits carry a
// verified confined-monitor certificate — a plan entry without its full
// certificate set is dropped, never partially applied.
func (e *Env) confinedIn(m *bytecode.Method) map[int]int8 {
	if ops, ok := e.confined[m]; ok {
		return ops
	}
	var ops map[int]int8
	if facts := e.Opts.Facts; facts != nil {
		for pc, ins := range m.Code {
			if ins.Op != bytecode.MONITORENTER {
				continue
			}
			exits, ok := facts.ConfinedExits(m.Name, pc)
			if !ok {
				continue
			}
			good := facts.RequireCert(m.Name, pc, analysis.CertConfined) == nil
			for _, ep := range exits {
				if facts.RequireCert(m.Name, ep, analysis.CertConfined) != nil {
					good = false
				}
			}
			if !good {
				continue
			}
			if ops == nil {
				ops = map[int]int8{}
			}
			ops[pc] = confinedEnter
			for _, ep := range exits {
				ops[ep] = confinedExit
			}
		}
	}
	e.confined[m] = ops
	return ops
}

// monitorFor resolves an object ref to its monitor, raising
// NullPointerException for a bad ref.
func (in *Interp) monitorFor(ref heap.Word) (*monitor.Monitor, bool) {
	o, ok := in.env.objects[ref]
	if !ok {
		in.raiseUser("NullPointerException")
		return nil, false
	}
	return in.env.RT.MonitorFor(o), true
}

// exec runs one instruction, updating f.pc.
func (in *Interp) exec(f *frame, instr bytecode.Instr) {
	// Every instruction boundary is a yield point; delivery of a pending
	// revocation happens inside Work via the runtime. The profiler site is
	// stamped first so the instruction's own ticks land on its pc.
	if in.env.profOn {
		in.task.SetProfSite(f.pc)
	}
	in.task.Work(in.env.Opts.CostPerInstr)
	if in.env.raceOn {
		in.task.SetRaceSite(f.m.Name, f.pc)
	}

	next := f.pc + 1
	switch instr.Op {
	case bytecode.NOP:

	case bytecode.CONST:
		f.push(heap.Word(instr.V))
	case bytecode.LOAD:
		f.push(f.locals[instr.A])
	case bytecode.STORE:
		f.locals[instr.A] = f.pop()
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

	case bytecode.ADD, bytecode.SUB, bytecode.MUL, bytecode.DIV, bytecode.MOD,
		bytecode.CMPEQ, bytecode.CMPNE, bytecode.CMPLT, bytecode.CMPLE,
		bytecode.CMPGT, bytecode.CMPGE:
		b, a := f.pop(), f.pop()
		v, ok := arith(instr.Op, a, b)
		if !ok {
			in.raiseUser("ArithmeticException")
			return
		}
		f.push(v)
	case bytecode.NEG:
		f.push(-f.pop())

	case bytecode.GOTO:
		next = instr.A
	case bytecode.IFNZ:
		if f.pop() != 0 {
			next = instr.A
		}
	case bytecode.IFZ:
		if f.pop() == 0 {
			next = instr.A
		}

	case bytecode.NEWOBJ:
		ref, err := in.env.NewObject(instr.S)
		if err != nil {
			in.fail("%v", err)
			return
		}
		if in.env.Opts.Facts != nil {
			if o, ok := in.env.objects[ref]; ok {
				in.task.RegisterAllocObject(o)
			}
		}
		f.push(ref)
	case bytecode.NEWARR:
		n := f.pop()
		if n < 0 {
			in.raiseUser("NegativeArraySizeException")
			return
		}
		ref := in.env.NewArray(int(n))
		if in.env.Opts.Facts != nil {
			if a, ok := in.env.arrays[ref]; ok {
				in.task.RegisterAllocArray(a)
			}
		}
		f.push(ref)
	case bytecode.ARRAYLEN:
		a, ok := in.array(f.pop())
		if !ok {
			return
		}
		f.push(heap.Word(a.Len()))

	case bytecode.GETFIELD:
		o, ok := in.object(f.pop())
		if !ok {
			return
		}
		if instr.A >= o.NumFields() {
			in.fail("%s: field %d out of range on %v", f.m.Name, instr.A, o)
			return
		}
		f.push(in.task.ReadField(o, instr.A))
	case bytecode.PUTFIELD:
		v := f.pop()
		o, ok := in.object(f.pop())
		if !ok {
			return
		}
		if instr.A >= o.NumFields() {
			in.fail("%s: field %d out of range on %v", f.m.Name, instr.A, o)
			return
		}
		in.task.WriteField(o, instr.A, v)
	case bytecode.GETSTATIC:
		f.push(in.task.ReadStatic(instr.A))
	case bytecode.PUTSTATIC:
		in.task.WriteStatic(instr.A, f.pop())
	case bytecode.ALOAD:
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
	case bytecode.ASTORE:
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

	// Raw stores (barrier elided by rewrite.ApplyElision): the store
	// cost is still charged, but the in-section check, undo logging and
	// speculation registration are skipped.
	case bytecode.PUTFIELDRAW:
		v := f.pop()
		o, ok := in.object(f.pop())
		if !ok {
			return
		}
		if instr.A >= o.NumFields() {
			in.fail("%s: field %d out of range on %v", f.m.Name, instr.A, o)
			return
		}
		in.task.Work(in.env.RT.Config().CostWrite)
		in.task.CountRawStore()
		if audit := in.env.Opts.ElisionAudit; audit != nil {
			audit(analysis.CertElideBarrier, f.m.Name, f.pc)
		}
		o.Set(instr.A, v)
		in.task.RaceRawWriteField(o, instr.A)
	case bytecode.PUTSTATICRAW:
		in.task.Work(in.env.RT.Config().CostWrite)
		in.task.CountRawStore()
		if audit := in.env.Opts.ElisionAudit; audit != nil {
			audit(analysis.CertElideBarrier, f.m.Name, f.pc)
		}
		in.env.RT.Heap().SetStatic(instr.A, f.pop())
		in.task.RaceRawWriteStatic(instr.A)
	case bytecode.ASTORERAW:
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
		in.task.Work(in.env.RT.Config().CostWrite)
		in.task.CountRawStore()
		if audit := in.env.Opts.ElisionAudit; audit != nil {
			audit(analysis.CertElideBarrier, f.m.Name, f.pc)
		}
		a.Set(int(idx), v)
		in.task.RaceRawWriteElem(a, int(idx))

	case bytecode.MONITORENTER:
		if in.env.confinedIn(f.m)[f.pc] == confinedEnter {
			// Certified thread-confined monitor: no second thread can ever
			// reach the object, so acquisition is a charge-only no-op. The
			// ref is still popped and null-checked for NPE parity.
			if _, ok := in.object(f.pop()); !ok {
				return
			}
			in.task.CountConfinedElision()
			if audit := in.env.Opts.ElisionAudit; audit != nil {
				audit(analysis.CertConfined, f.m.Name, f.pc)
			}
			break
		}
		m, ok := in.monitorFor(f.pop())
		if !ok {
			return
		}
		depth := in.task.EngineFrameDepth()
		if in.env.dlOn {
			in.task.SetLockSite(f.m.Name, f.pc)
		}
		in.task.EngineEnter(m)
		if facts := in.env.Opts.Facts; facts != nil {
			if s := facts.SectionAt(f.m.Name, f.pc); s != nil && s.NonRevocable {
				if err := facts.RequireCert(f.m.Name, f.pc, analysis.CertNonRevocable); err != nil {
					in.fail("%v", err)
					return
				}
				in.task.PreMarkNonRevocable(s.ReasonSummary())
			}
		}
		if !in.env.Opts.Rewritten {
			// No rollback scopes exist: revoking would strand control.
			in.task.MarkIrrevocable("unrewritten bytecode")
		}
		f.syncs = append(f.syncs, activeSync{
			staticIdx: in.env.regionIndex(f.m, f.pc),
			mon:       m,
			coreDepth: depth,
		})
	case bytecode.MONITOREXIT:
		if in.env.confinedIn(f.m)[f.pc] == confinedExit {
			if _, ok := in.object(f.pop()); !ok {
				return
			}
			in.task.CountConfinedElision()
			if audit := in.env.Opts.ElisionAudit; audit != nil {
				audit(analysis.CertConfined, f.m.Name, f.pc)
			}
			break
		}
		m, ok := in.monitorFor(f.pop())
		if !ok {
			return
		}
		if len(f.syncs) == 0 || f.syncs[len(f.syncs)-1].mon != m {
			in.fail("%s@%d: monitorexit does not match innermost monitorenter", f.m.Name, f.pc)
			return
		}
		f.syncs = f.syncs[:len(f.syncs)-1]
		in.task.EngineExit(m)

	case bytecode.WAIT:
		m, ok := in.monitorFor(f.pop())
		if !ok {
			return
		}
		in.task.Wait(m)
	case bytecode.NOTIFY:
		m, ok := in.monitorFor(f.pop())
		if !ok {
			return
		}
		in.task.Notify(m)
	case bytecode.NOTIFYALL:
		m, ok := in.monitorFor(f.pop())
		if !ok {
			return
		}
		in.task.NotifyAll(m)

	case bytecode.INVOKE:
		callee := f.rec.callee(f.pc)
		if callee == nil {
			in.fail("%s@%d: unknown method %q", f.m.Name, f.pc, instr.S)
			return
		}
		in.invoke(f, callee)
		return
	case bytecode.RETURN, bytecode.IRETURN:
		var v heap.Word
		if instr.Op == bytecode.IRETURN {
			v = f.pop()
		}
		in.returnFrom(f, v)
		return

	case bytecode.THROW:
		in.raiseUser(instr.S)
		return
	case bytecode.RETHROW:
		in.rethrow()
		return

	case bytecode.NATIVE:
		fn, ok := in.env.natives[instr.S]
		if !ok {
			in.fail("%s@%d: unknown native %q", f.m.Name, f.pc, instr.S)
			return
		}
		args := make([]heap.Word, instr.A)
		for i := instr.A - 1; i >= 0; i-- {
			args[i] = f.pop()
		}
		var ret heap.Word
		in.task.Native(instr.S, func() { ret = fn(in.env, in.task, args) })
		f.push(ret)

	case bytecode.WORK:
		in.task.Work(simtime.Ticks(f.pop()))
	case bytecode.SLEEP:
		in.task.Sleep(simtime.Ticks(f.pop()))

	case bytecode.SPAWN:
		r := f.rec.callee(f.pc)
		if r == nil {
			in.fail("%s@%d: spawn of unknown method %q", f.m.Name, f.pc, instr.S)
			return
		}
		callee := r.m
		args := make([]heap.Word, callee.Args)
		for i := callee.Args - 1; i >= 0; i-- {
			args[i] = f.pop()
		}
		in.env.spawnCount++
		name := fmt.Sprintf("%s#%d", instr.S, in.env.spawnCount)
		env := in.env
		in.env.RT.Spawn(name, sched.Priority(instr.A), func(tk *core.Task) {
			if _, err := env.Call(tk, callee, args); err != nil {
				panic(fmt.Sprintf("interp: thread %s: %v", tk.Name(), err))
			}
		})

	case bytecode.SAVESTACK:
		d := int(instr.V)
		for i := 0; i < d; i++ {
			f.locals[instr.A+i] = f.stack[i]
		}
	case bytecode.RESTORESTACK:
		d := int(instr.V)
		for i := 0; i < d; i++ {
			f.push(f.locals[instr.A+i])
		}
	case bytecode.CHECKTARGET:
		p := in.pending
		if p != nil && p.rollback && p.targetFrame == f && p.targetRegion == instr.A {
			in.pending = nil // rollback caught; the handler re-enters
			f.push(1)
		} else {
			f.push(0)
		}

	default:
		in.fail("%s@%d: unimplemented opcode %v", f.m.Name, f.pc, instr.Op)
		return
	}
	f.pc = next
}

// arith evaluates a binary operator; ok is false on division by zero.
func arith(op bytecode.Op, a, b heap.Word) (heap.Word, bool) {
	switch op {
	case bytecode.ADD:
		return a + b, true
	case bytecode.SUB:
		return a - b, true
	case bytecode.MUL:
		return a * b, true
	case bytecode.DIV:
		if b == 0 {
			return 0, false
		}
		return a / b, true
	case bytecode.MOD:
		if b == 0 {
			return 0, false
		}
		return a % b, true
	case bytecode.CMPEQ:
		return bool2w(a == b), true
	case bytecode.CMPNE:
		return bool2w(a != b), true
	case bytecode.CMPLT:
		return bool2w(a < b), true
	case bytecode.CMPLE:
		return bool2w(a <= b), true
	case bytecode.CMPGT:
		return bool2w(a > b), true
	case bytecode.CMPGE:
		return bool2w(a >= b), true
	}
	panic("unreachable")
}

func bool2w(b bool) heap.Word {
	if b {
		return 1
	}
	return 0
}

// object resolves an object ref, raising NullPointerException on failure.
func (in *Interp) object(ref heap.Word) (*heap.Object, bool) {
	o, ok := in.env.objects[ref]
	if !ok {
		in.raiseUser("NullPointerException")
		return nil, false
	}
	return o, true
}

// array resolves an array ref, raising NullPointerException on failure.
func (in *Interp) array(ref heap.Word) (*heap.Array, bool) {
	a, ok := in.env.arrays[ref]
	if !ok {
		in.raiseUser("NullPointerException")
		return nil, false
	}
	return a, true
}

// ---------------------------------------------------------------------------
// Exception dispatch.

// raiseUser throws a user (or VM) exception of the given class from the
// current pc, using standard Java dispatch: the innermost handler whose
// range covers the pc and whose catch type matches (exact name or "*").
// Handlers for the internal rollback exception never match.
func (in *Interp) raiseUser(class string) {
	ref, err := in.env.NewObject(class)
	if err != nil {
		in.fail("%v", err)
		return
	}
	in.pending = &inflight{
		excClass:    class,
		excRef:      ref,
		faultPC:     in.top().pc,
		nextHandler: 0,
	}
	in.dispatchUser()
}

// rethrow re-raises the in-flight exception to the next outer scope.
func (in *Interp) rethrow() {
	p := in.pending
	if p == nil {
		in.fail("rethrow with no in-flight exception")
		return
	}
	if p.rollback {
		in.dispatchRollback()
		return
	}
	in.dispatchUser()
}

// dispatchUser finds the next handler for the in-flight user exception.
func (in *Interp) dispatchUser() {
	p := in.pending
	for len(in.frames) > 0 {
		f := in.top()
		for h := p.nextHandler; h < len(f.m.Handlers); h++ {
			hd := f.m.Handlers[h]
			if hd.Catch == bytecode.RollbackClass {
				continue
			}
			if p.faultPC < hd.From || p.faultPC >= hd.To {
				continue
			}
			if hd.Catch != bytecode.CatchAny && hd.Catch != p.excClass {
				continue
			}
			f.stack = f.stack[:0]
			f.push(p.excRef)
			f.pc = hd.Target
			p.nextHandler = h + 1
			return
		}
		// No handler here: this activation dies. Java semantics release
		// the monitors of abandoned synchronized blocks (updates stay —
		// exceptions do not roll back).
		for i := len(f.syncs) - 1; i >= 0; i-- {
			in.task.EngineExit(f.syncs[i].mon)
		}
		in.popFrame()
		if len(in.frames) > 0 {
			p.faultPC = in.top().pc
			p.nextHandler = 0
		}
	}
	in.pending = nil
	in.err = fmt.Errorf("interp: uncaught exception %s in thread %s", p.excClass, in.task.Name())
}

// beginRollback starts bytecode-level dispatch of a delivered revocation:
// discard the rolled-back core frames, purge the dead region instances,
// locate the target region, and find the first rollback handler.
func (in *Interp) beginRollback(info core.RevokeInfo) {
	in.task.EngineUnwind(info)

	// Locate the target region instance and purge everything at or above
	// the target depth — those sections' effects and monitors are gone.
	var targetFrame *frame
	targetRegion := -1
	for fi := len(in.frames) - 1; fi >= 0; fi-- {
		f := in.frames[fi]
		keep := f.syncs[:0]
		for _, s := range f.syncs {
			if s.coreDepth == info.Target {
				targetFrame = f
				targetRegion = s.staticIdx
			}
			if s.coreDepth < info.Target {
				keep = append(keep, s)
			}
		}
		f.syncs = keep
	}
	if targetFrame == nil {
		in.fail("rollback target %d has no active region (thread %s)", info.Target, in.task.Name())
		return
	}
	if targetRegion < 0 {
		in.fail("rollback targeted an unstructured synchronized section (thread %s)", in.task.Name())
		return
	}
	in.pending = &inflight{
		rollback:     true,
		info:         info,
		targetFrame:  targetFrame,
		targetRegion: targetRegion,
		faultPC:      in.top().pc,
		nextHandler:  0,
	}
	in.dispatchRollback()
}

// dispatchRollback finds the next handler explicitly catching the rollback
// exception. Per §3.1.2, every other handler — finally blocks,
// catch(Throwable) — is ignored while a rollback is in flight.
func (in *Interp) dispatchRollback() {
	p := in.pending
	for len(in.frames) > 0 {
		f := in.top()
		for h := p.nextHandler; h < len(f.m.Handlers); h++ {
			hd := f.m.Handlers[h]
			if hd.Catch != bytecode.RollbackClass {
				continue // the modified exception dispatch
			}
			if p.faultPC < hd.From || p.faultPC >= hd.To {
				continue
			}
			f.stack = f.stack[:0]
			f.pc = hd.Target
			p.nextHandler = h + 1
			return
		}
		// The activation was called inside the doomed section: discard it.
		// Its monitors were already force-released by the rollback.
		in.popFrame()
		if len(in.frames) > 0 {
			p.faultPC = in.top().pc
			p.nextHandler = 0
		}
	}
	in.pending = nil
	in.err = fmt.Errorf("interp: rollback escaped every scope in thread %s (program not rewritten?)", in.task.Name())
}
