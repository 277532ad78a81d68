// Package analysis is the whole-program static analysis framework over
// bytecode programs. It moves decisions the paper's runtime makes
// dynamically to load time (§1.1: "compiler analyses and optimization may
// elide these run-time checks"):
//
//   - Section discovery maps every MONITORENTER site to the instructions
//     and methods reachable while the monitor is held.
//
//   - The revocability classifier marks a section statically non-revocable
//     when a native call, a volatile read, or a nested wait is reachable
//     inside it — the same three triggers the runtime checks dynamically
//     (§2.2). A statically non-revocable monitor can be pre-marked at
//     monitorenter, so the section runs with zero undo-log entries instead
//     of logging right up to the dynamic trigger.
//
//   - The lock-order graph records which abstract locks are acquired while
//     which others are held; a strongly connected component of two or more
//     locks is a potential deadlock, reported with method@pc witnesses
//     before any thread ever blocks.
//
//   - Flow-sensitive barrier elision proves, per store instruction, that
//     the write barrier's logging slow path can never fire: either the
//     store can never execute while a monitor is held, or its target object
//     was allocated inside the current section (whose allocation undo entry
//     already restores it wholesale on rollback).
//
//   - The behavioral deadlock pass (behavior.go) infers per-method
//     lock/spawn contracts, unfolds them through SPAWN to a thread-system
//     fixpoint, and checks circularity under a finer abstract-lock naming
//     (field- and array-sourced monitors get merged identities). It reports
//     deadlocks that need spawned thread multiplicity or value-dependent
//     lock aliasing, where the SCC pass above stays structurally silent.
//
//   - The permission pass (perm.go) re-derives every optimization the
//     facts license as a proof obligation over held-region and freshness
//     permission lattices and emits a machine-checkable elision
//     Certificate per (method, pc, kind). Consumers call RequireCert
//     instead of trusting raw fact fields; interp.NewEnv rejects a fact
//     set whose obligations are not fully discharged.
//
// Every classification errs on the conservative side: over-marking a
// section non-revocable only denies revocations (the unmodified VM denies
// all of them), and under-eliding only keeps a barrier that was already
// sound. cmd/rvmlint exposes the findings as a CLI; interp.Options.Facts
// feeds them to the runtime.
package analysis

import (
	"fmt"
	"sort"

	"repro/internal/bytecode"
)

// Pos identifies one instruction.
type Pos struct {
	Method string `json:"method"`
	PC     int    `json:"pc"`
}

func (p Pos) String() string { return fmt.Sprintf("%s@%d", p.Method, p.PC) }

// Reason is one revocability trigger found inside a section.
type Reason struct {
	// Kind is "native-call", "volatile-read" or "nested-wait".
	Kind string `json:"kind"`
	// Pos is the triggering instruction.
	Pos Pos `json:"pos"`
	// Detail names the native, variable or monitor involved.
	Detail string `json:"detail,omitempty"`
}

func (r Reason) String() string {
	if r.Detail != "" {
		return fmt.Sprintf("%s %s at %v", r.Kind, r.Detail, r.Pos)
	}
	return fmt.Sprintf("%s at %v", r.Kind, r.Pos)
}

// Section is one MONITORENTER site plus everything reachable while its
// monitor is held.
type Section struct {
	// Enter is the MONITORENTER instruction.
	Enter Pos `json:"enter"`
	// Lock is the abstract identity of the monitor object (see lock ids in
	// lockorder.go).
	Lock string `json:"lock"`
	// PCs lists the containing method's instructions inside the section,
	// ascending (conservative over-approximation; includes teardown).
	PCs []int `json:"pcs"`
	// Callees lists the methods transitively invocable while held, sorted.
	Callees []string `json:"callees,omitempty"`
	// SyncMethod marks the synthetic section representing a synchronized
	// method's whole body (Enter.PC is 0, the first instruction).
	SyncMethod bool `json:"sync_method,omitempty"`
	// NonRevocable reports the static classification; Reasons carries the
	// triggers (empty when revocable).
	NonRevocable bool     `json:"non_revocable"`
	Reasons      []Reason `json:"reasons,omitempty"`
}

// ReasonSummary renders the first trigger for trace/runtime consumption.
func (s *Section) ReasonSummary() string {
	if len(s.Reasons) == 0 {
		return "static"
	}
	return "static: " + s.Reasons[0].String()
}

// LockEdge is one lock-order edge: To is acquired while From is held.
type LockEdge struct {
	From string `json:"from"`
	To   string `json:"to"`
	// At is the inner acquisition site, Outer the section it runs under.
	At    Pos `json:"at"`
	Outer Pos `json:"outer"`
}

// Cycle is one potential deadlock: a strongly connected set of locks.
type Cycle struct {
	// Locks lists the member lock ids, sorted.
	Locks []string `json:"locks"`
	// Edges lists the witnessing acquisitions inside the component.
	Edges []LockEdge `json:"edges"`
}

// methodInfo holds the per-method analysis state.
type methodInfo struct {
	m *bytecode.Method
	// depth[pc] is the static monitor depth before pc (-1 unreachable)
	// within this method body (bytecode.MonitorDepths).
	depth []int
	// stack[pc] is the operand-stack depth before pc (-1 unreachable).
	stack []int
	// held[pc] is true when some monitor entered in this method may still
	// be held at pc (union over enter sites, handler-conservative).
	held []bool
	// mayRunHeld is true when the method body may execute with any monitor
	// held: it is synchronized, called from inside a section, or called
	// from a mayRunHeld method.
	mayRunHeld bool
	// callees lists INVOKE targets (with duplicates, in code order).
	callees []string
	// monitorFree is true when neither this method nor anything it can
	// call contains MONITORENTER/MONITOREXIT/WAIT/NATIVE or is
	// synchronized — the condition under which a call preserves the
	// caller's object-freshness facts.
	monitorFree bool
}

// Facts is the analysis result attached to a program.
type Facts struct {
	// Sections lists every MONITORENTER site, ordered by method then pc.
	Sections []*Section `json:"sections"`
	// Cycles lists the potential lock-order deadlocks.
	Cycles []Cycle `json:"cycles,omitempty"`
	// Deadlocks lists the circularities found by the behavioral contract
	// pass (behavior.go): every lock-order cycle under the finer behavioral
	// naming, plus single-name circularities on multi-instance locks that
	// the SCC pass structurally cannot see.
	Deadlocks []Cycle `json:"deadlocks,omitempty"`
	// Certs lists the elision certificates issued by the permission pass
	// (perm.go): one discharged proof obligation per optimization the
	// runtime is allowed to perform on the strength of these facts.
	Certs []*Certificate `json:"certificates,omitempty"`
	// Races lists the candidate data races (races.go); Bypasses the
	// volatile-bypass access patterns.
	Races    []Race           `json:"races,omitempty"`
	Bypasses []VolatileBypass `json:"volatile_bypasses,omitempty"`
	// Confinements classifies every acquired multi-instance behavioral
	// lock name as thread-confined, shared or unknown (escape.go).
	Confinements []Confinement `json:"confinements,omitempty"`
	// TotalStores and ElidableStores count the program's reachable store
	// instructions and how many can skip the write-barrier slow path;
	// NeverHeldStores and FreshStores split the elidable count by proof
	// (never executes held vs. provably-fresh target object).
	TotalStores     int `json:"total_stores"`
	ElidableStores  int `json:"elidable_stores"`
	NeverHeldStores int `json:"never_held_stores"`
	FreshStores     int `json:"fresh_stores"`

	// CallGraph maps each method to its sorted, deduplicated callees.
	CallGraph map[string][]string `json:"call_graph,omitempty"`

	prog      *bytecode.Program
	methods   map[string]*methodInfo
	sectionAt map[Pos]*Section
	elidable  map[Pos]bool
	neverHeld map[Pos]bool
	certAt    map[certKey]*Certificate
	// confined maps each elidable confined MONITORENTER position to its
	// paired MONITOREXIT pcs (escape.go).
	confined map[Pos][]int
}

// Analyze runs every pass over p. The program must verify: Analyze runs
// the bytecode verifier itself, once per method, and returns the error
// bytecode.Verify would. p is not modified; Facts keyed by method name and
// pc remain valid for any clone with identical code, including the same
// program after ApplyElision rewrites stores to their raw forms.
func Analyze(p *bytecode.Program) (*Facts, error) {
	f := &Facts{
		prog:      p,
		methods:   make(map[string]*methodInfo, len(p.Methods)),
		sectionAt: make(map[Pos]*Section),
		elidable:  make(map[Pos]bool),
		neverHeld: make(map[Pos]bool),
		CallGraph: make(map[string][]string, len(p.Methods)),
	}
	for _, m := range p.Methods {
		stack, err := bytecode.VerifyMethod(p, m)
		if err != nil {
			return nil, err
		}
		depth, err := bytecode.MonitorDepths(p, m)
		if err != nil {
			return nil, err
		}
		mi := &methodInfo{m: m, depth: depth, stack: stack}
		for _, in := range m.Code {
			if in.Op == bytecode.INVOKE {
				mi.callees = append(mi.callees, in.S)
			}
		}
		f.methods[m.Name] = mi
		f.CallGraph[m.Name] = sortedUnique(mi.callees)
	}
	if err := bytecode.VerifyThreads(p); err != nil {
		return nil, err
	}
	d := &derivation{f: f}
	f.computeMayRunHeld()
	f.computeMonitorFree()
	f.discoverSections()
	f.buildLockOrder()
	f.computeElision()
	f.computeRaces(d)
	f.computeEscape(d)
	f.computeDeadlocks(d)
	f.computePermissions(d)
	f.normalize()
	return f, nil
}

// derivation memoizes the results several passes read, so each is solved
// once: thread reachability, each method's lock-name states and each
// allocation site's escape verdict. It is never stored in Facts: Analyze
// makes one for all its passes and VerifyCertificates makes its own, so
// the certificate gate re-derives every result from the program.
type derivation struct {
	f      *Facts
	reach  map[string]map[string]bool
	names  map[*methodInfo][]*slots[string]
	escape map[allocSite]escInfo
}

func (d *derivation) threadReach() map[string]map[string]bool {
	if d.reach == nil {
		d.reach = d.f.threadReachability()
	}
	return d.reach
}

func (d *derivation) nameStates(mi *methodInfo) []*slots[string] {
	st, ok := d.names[mi]
	if !ok {
		if d.names == nil {
			d.names = make(map[*methodInfo][]*slots[string])
		}
		st = d.f.nameStates(mi)
		d.names[mi] = st
	}
	return st
}

func (d *derivation) allocEscape(site allocSite) escInfo {
	info, ok := d.escape[site]
	if !ok {
		if d.escape == nil {
			d.escape = make(map[allocSite]escInfo)
		}
		info = d.f.allocEscape(site.mi, site.pc)
		d.escape[site] = info
	}
	return info
}

// SectionAt returns the section whose MONITORENTER sits at (method, pc), or
// nil. The runtime uses it to pre-mark statically non-revocable monitors.
func (f *Facts) SectionAt(method string, pc int) *Section {
	return f.sectionAt[Pos{method, pc}]
}

// ElidableStore reports whether the store instruction at (method, pc) needs
// no write barrier: it can never execute while a monitor is held, or its
// target is provably an object allocated inside the current section.
func (f *Facts) ElidableStore(method string, pc int) bool {
	return f.elidable[Pos{method, pc}]
}

// StoreNeverHeld reports whether the store at (method, pc) is elidable by
// the never-executes-held proof alone. Unlike ElidableStore it never relies
// on target freshness, so it is sound even when the runtime does not log
// allocations (the legacy rewrite.ApplyElision path).
func (f *Facts) StoreNeverHeld(method string, pc int) bool {
	return f.neverHeld[Pos{method, pc}]
}

// MayRunHeld reports whether the named method's body may execute while any
// monitor is held (its own sections aside).
func (f *Facts) MayRunHeld(method string) bool {
	mi, ok := f.methods[method]
	return ok && mi.mayRunHeld
}

// MethodElidable reports whether every store in the named method can never
// execute while a monitor is held (the coarse, method-level view
// rewrite.BarrierAnalysis exposes; fresh-target proofs are deliberately
// excluded because they need the runtime's allocation logging).
func (f *Facts) MethodElidable(method string) bool {
	mi, ok := f.methods[method]
	if !ok {
		return false
	}
	for pc, in := range mi.m.Code {
		switch in.Op {
		case bytecode.PUTFIELD, bytecode.PUTSTATIC, bytecode.ASTORE:
			if mi.depth[pc] < 0 {
				continue
			}
			if !f.neverHeld[Pos{method, pc}] {
				return false
			}
		}
	}
	return true
}

// NonRevocableSections counts the statically non-revocable sections.
func (f *Facts) NonRevocableSections() int {
	n := 0
	for _, s := range f.Sections {
		if s.NonRevocable {
			n++
		}
	}
	return n
}

// computeMayRunHeld runs the caller-context fixpoint: a method may run held
// when it is synchronized, is invoked at a pc whose static monitor depth is
// positive, or is invoked (anywhere) by a method that may run held.
func (f *Facts) computeMayRunHeld() {
	var w callWork
	mark := func(name string) {
		if mi, ok := f.methods[name]; ok && !mi.mayRunHeld {
			mi.mayRunHeld = true
			w.push(name)
		}
	}
	for _, mi := range f.methods {
		base := 0
		if mi.m.Synchronized {
			mark(mi.m.Name)
			base = 1
		}
		for pc, in := range mi.m.Code {
			if in.Op == bytecode.INVOKE && mi.depth[pc] >= 0 && mi.depth[pc]+base > 0 {
				mark(in.S)
			}
		}
	}
	w.run(func(name string) {
		for _, c := range f.methods[name].callees {
			mark(c)
		}
	})
}

// computeMonitorFree marks methods whose transitive call tree contains no
// monitor operation and no native call — calls to them preserve freshness.
// It starts optimistic, knocks out methods with a local monitor op, and
// propagates impurity up the call graph.
func (f *Facts) computeMonitorFree() {
	callers := make(map[string][]string)
	var w callWork
	for name, mi := range f.methods {
		mi.monitorFree = !impure(mi.m)
		for _, c := range mi.callees {
			callers[c] = append(callers[c], name)
		}
		if !mi.monitorFree {
			w.push(name)
		}
	}
	w.run(func(name string) {
		for _, caller := range callers[name] {
			if mi := f.methods[caller]; mi.monitorFree {
				mi.monitorFree = false
				w.push(caller)
			}
		}
	})
}

// impure reports whether m itself is synchronized or contains a monitor
// operation, a native call or a SPAWN. SPAWN publishes its arguments to a
// concurrently running thread, so a call into a spawning method must not
// preserve the caller's freshness facts.
func impure(m *bytecode.Method) bool {
	if m.Synchronized {
		return true
	}
	for _, in := range m.Code {
		switch in.Op {
		case bytecode.MONITORENTER, bytecode.MONITOREXIT, bytecode.WAIT, bytecode.NATIVE,
			bytecode.SPAWN:
			return true
		}
	}
	return false
}

func sortedUnique(in []string) []string {
	if len(in) == 0 {
		return nil
	}
	out := append([]string(nil), in...)
	sort.Strings(out)
	w := 0
	for i, s := range out {
		if i == 0 || s != out[w-1] {
			out[w] = s
			w++
		}
	}
	return out[:w]
}
