package analysis

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/bytecode"
)

// Escape / thread-confinement analysis.
//
// The behavioral naming (behavior.go) deliberately over-merges the
// multi-instance lock names — "new:" per allocation site, "field:#N" per
// field index, "array:elem" for every array element — because aliasing
// over-approximation is the right direction for a may-deadlock report. For
// the runtime the interesting question is the opposite one: which of those
// monitors can ONE thread ever touch? A monitor no second thread can reach
// needs none of the paper's machinery — no lock word, no revocation
// eligibility, no undo logging, no race clocks — so every certified
// confined MONITORENTER/MONITOREXIT pair compiles to a charge-only no-op
// in both tiers.
//
// Classification is per behavioral lock name:
//
//   - "new:Class@method@pc" names are classified by an allocation-site
//     points-to dataflow: a MAY-alias bit for the one allocation site is
//     propagated forward over (stack, locals), OR-merged at joins (the
//     dual of the freshness lattice in fresh.go, which is a MUST analysis
//     and AND-merges). The object escapes its creating thread exactly when
//     an aliasing value is stored into any object, array or static
//     (PUTFIELD/PUTSTATIC/ASTORE and their RAW forms) or passed to a SPAWN
//     — the escape kills the race pass already applies to freshness, here
//     recorded instead of killing. A value that flows into an INVOKE, a
//     NATIVE or a return leaves the method's view, so the site degrades to
//     "unknown" rather than "shared". No escape on any path means every
//     dynamic instance of the site is reachable only by its allocating
//     thread: thread-confined even when the method itself runs on many
//     threads, because each execution allocates a fresh instance.
//
//   - "field:#N" / "array:elem" names are classified by thread
//     reachability (races.go): if the union of thread identities that can
//     reach any acquiring method — declared threads one identity, SPAWN
//     targets two pseudo-identities for their multiplicity — has size at
//     most one, only one thread can ever perform any of those
//     acquisitions and the name is thread-confined; otherwise it is
//     shared. (Reachability is the whole proof here: a field-sourced lock
//     has escaped into the heap by construction.)
//
// On top of the classification the pass derives the whole-monitor elision
// sites: a confined "new:"-named MONITORENTER whose acquisition pairs
// exactly with its MONITOREXITs (monitorPairing below) may skip the
// monitor entirely. The permission pass (perm.go) turns each such site
// into CertConfined certificates — one at the enter, one at every paired
// exit — and the tiers demand them via RequireCert before compiling the
// no-op, so a tampered fact set fails at load time, not silently at run
// time.

// Confinement classes.
const (
	ConfinedClass = "thread-confined"
	SharedClass   = "shared"
	UnknownClass  = "unknown"
)

// Confinement is the classification of one multi-instance behavioral lock
// name that some section acquires.
type Confinement struct {
	// Lock is the behavioral lock name ("new:"/"field:"/"array:" prefixed).
	Lock string `json:"lock"`
	// Class is ConfinedClass, SharedClass or UnknownClass.
	Class string `json:"class"`
	// Reason is the human-readable proof or counterexample.
	Reason string `json:"reason"`
	// Sites lists the MONITORENTER positions acquiring this name, sorted.
	Sites []Pos `json:"sites"`
}

// escState is the MAY-alias vector for one allocation site: true marks a
// slot that may hold a reference to an object from the site.
type escState struct {
	stack  []bool
	locals []bool
}

func (s *escState) clone() *escState {
	return &escState{
		stack:  append([]bool(nil), s.stack...),
		locals: append([]bool(nil), s.locals...),
	}
}

// orMerge ORs other into s; reports whether s changed. A stack-shape
// mismatch (impossible in verified code) reports ok=false.
func (s *escState) orMerge(other *escState) (changed, ok bool) {
	if len(s.stack) != len(other.stack) || len(s.locals) != len(other.locals) {
		return false, false
	}
	for i := range s.stack {
		if !s.stack[i] && other.stack[i] {
			s.stack[i] = true
			changed = true
		}
	}
	for i := range s.locals {
		if !s.locals[i] && other.locals[i] {
			s.locals[i] = true
			changed = true
		}
	}
	return changed, true
}

// escInfo is the verdict of allocEscape for one allocation site.
type escInfo struct {
	// heapEscape: an alias was stored into an object/array/static or
	// published to a spawned thread — definitely reachable by others.
	heapEscape bool
	// unknown: an alias left the method's view (call, native, return,
	// throw) or the dataflow could not model an instruction.
	unknown bool
	// synced: an alias was the target of WAIT/NOTIFY/NOTIFYALL. The object
	// may still be confined, but its monitor has observable suspension
	// semantics, so whole-monitor elision is off the table.
	synced bool
}

func (e escInfo) class() string {
	switch {
	case e.heapEscape:
		return SharedClass
	case e.unknown:
		return UnknownClass
	default:
		return ConfinedClass
	}
}

// allocEscape runs the MAY-alias dataflow for the allocation at
// (mi, allocPC) over the whole method body.
func (f *Facts) allocEscape(mi *methodInfo, allocPC int) escInfo {
	m := mi.m
	var info escInfo
	states := make([]*escState, len(m.Code))
	var queue []int
	post := func(pc int, st *escState) {
		if states[pc] == nil {
			states[pc] = st.clone()
			queue = append(queue, pc)
			return
		}
		changed, ok := states[pc].orMerge(st)
		if !ok {
			info.unknown = true
			return
		}
		if changed {
			queue = append(queue, pc)
		}
	}
	post(0, &escState{locals: make([]bool, m.Locals)})

	run := func() {
		for len(queue) > 0 {
			pc := queue[0]
			queue = queue[1:]
			st := states[pc].clone()
			if !f.escTransfer(mi, pc, allocPC, st, &info) {
				info.unknown = true
				continue
			}
			for _, s := range succs(m, pc) {
				post(s, st)
			}
		}
	}
	run()
	// Handler union rule: an exception at any covered pc transfers to the
	// target with the thrown object on the stack and the LOCALS preserved —
	// aliases survive in locals across the unwind, so the target's locals
	// are the OR over the covered range. Iterate to a fixpoint (a handler
	// may cover another handler's body). Rollback handlers are included:
	// conservative, since more flow only widens the may-alias set.
	for {
		progressed := false
		for _, h := range m.Handlers {
			if mi.stack[h.Target] < 0 {
				continue
			}
			hs := &escState{
				stack:  make([]bool, mi.stack[h.Target]),
				locals: make([]bool, m.Locals),
			}
			seen := false
			for pc := h.From; pc < h.To && pc < len(m.Code); pc++ {
				if states[pc] == nil {
					continue
				}
				seen = true
				for i, b := range states[pc].locals {
					if b {
						hs.locals[i] = true
					}
				}
			}
			if !seen {
				continue
			}
			if states[h.Target] == nil {
				states[h.Target] = hs
				queue = append(queue, h.Target)
				progressed = true
				continue
			}
			changed, ok := states[h.Target].orMerge(hs)
			if !ok {
				info.unknown = true
				continue
			}
			if changed {
				queue = append(queue, h.Target)
				progressed = true
			}
		}
		if !progressed {
			break
		}
		run()
	}
	return info
}

// escTransfer applies one instruction to st in place, recording escape
// events into info; reports ok=false when the instruction cannot be
// modelled against the tracked stack shape.
func (f *Facts) escTransfer(mi *methodInfo, pc, allocPC int, st *escState, info *escInfo) bool {
	m := mi.m
	in := m.Code[pc]
	top := func(k int) int { return len(st.stack) - k }
	tracked := func(k int) bool { return len(st.stack) >= k && st.stack[top(k)] }
	pop := func(k int) bool {
		if len(st.stack) < k {
			return false
		}
		st.stack = st.stack[:len(st.stack)-k]
		return true
	}
	push := func(vals ...bool) { st.stack = append(st.stack, vals...) }

	switch in.Op {
	case bytecode.LOAD:
		push(st.locals[in.A])
	case bytecode.STORE:
		if len(st.stack) < 1 {
			return false
		}
		st.locals[in.A] = st.stack[top(1)]
		pop(1)
	case bytecode.DUP:
		if len(st.stack) < 1 {
			return false
		}
		push(st.stack[top(1)])
	case bytecode.SWAP:
		if len(st.stack) < 2 {
			return false
		}
		st.stack[top(1)], st.stack[top(2)] = st.stack[top(2)], st.stack[top(1)]
	case bytecode.NEWOBJ:
		push(pc == allocPC)
	case bytecode.NEWARR:
		if !pop(1) {
			return false
		}
		push(false)
	case bytecode.PUTFIELD, bytecode.PUTFIELDRAW, bytecode.PUTSTATIC,
		bytecode.PUTSTATICRAW, bytecode.ASTORE, bytecode.ASTORERAW:
		// The stored VALUE is on top; storing an alias publishes the object
		// into the heap. Storing INTO the object is not an escape of it.
		if tracked(1) {
			info.heapEscape = true
		}
		pops, _, _, _, err := bytecode.StackEffect(f.prog, m, pc, in)
		if err != nil || !pop(pops) {
			return false
		}
	case bytecode.MONITORENTER, bytecode.MONITOREXIT:
		// Locking the object is its intended use, not an escape.
		if !pop(1) {
			return false
		}
	case bytecode.WAIT, bytecode.NOTIFY, bytecode.NOTIFYALL:
		if tracked(1) {
			info.synced = true
		}
		if !pop(1) {
			return false
		}
	case bytecode.NATIVE:
		for k := 1; k <= in.A; k++ {
			if tracked(k) {
				info.unknown = true
			}
		}
		if !pop(in.A) {
			return false
		}
		push(false)
	case bytecode.INVOKE:
		callee := f.methods[in.S]
		if callee == nil {
			return false
		}
		for k := 1; k <= callee.m.Args; k++ {
			if tracked(k) {
				info.unknown = true
			}
		}
		if !pop(callee.m.Args) {
			return false
		}
		if callee.m.Returns {
			push(false)
		}
	case bytecode.SPAWN:
		callee := f.methods[in.S]
		if callee == nil {
			return false
		}
		for k := 1; k <= callee.m.Args; k++ {
			if tracked(k) {
				info.heapEscape = true
			}
		}
		if !pop(callee.m.Args) {
			return false
		}
	case bytecode.IRETURN, bytecode.THROW:
		if tracked(1) {
			info.unknown = true
		}
		if !pop(1) {
			return false
		}
	case bytecode.SAVESTACK:
		d := int(in.V)
		if len(st.stack) != d {
			return false
		}
		for i := 0; i < d; i++ {
			st.locals[in.A+i] = st.stack[i]
		}
	case bytecode.RESTORESTACK:
		d := int(in.V)
		for i := 0; i < d; i++ {
			push(st.locals[in.A+i])
		}
	default:
		pops, pushes, _, _, err := bytecode.StackEffect(f.prog, m, pc, in)
		if err != nil || !pop(pops) {
			return false
		}
		for i := 0; i < pushes; i++ {
			push(false)
		}
	}
	return true
}

// pairing is the result of tracking one MONITORENTER's acquisition through
// the CFG.
type pairing struct {
	// exits is the set of MONITOREXIT pcs reached at relative depth 1 —
	// the instructions that release exactly this acquisition.
	exits map[int]bool
	// clean is true when the acquisition is exactly bracketed: no path
	// leaks it past a terminal instruction, no WAIT can suspend inside it,
	// no user exception handler covers it, no exit pc is reachable at two
	// different relative depths, and the depth tracking stayed bounded.
	clean bool
	// poison marks a depth-tracking blowup: the exit set is unreliable and
	// the enter must be treated as potentially using every exit.
	poison bool
}

// monitorPairing walks (pc, relative-depth) states from the MONITORENTER
// at ep — the same state space heldFrom explores — and classifies the
// acquisition's release structure. Unlike heldFrom it never gives up
// early: the full exit set is needed for the cross-enter exclusivity
// check even when the enter itself is not cleanly bracketed.
func monitorPairing(m *bytecode.Method, ep int) pairing {
	p := pairing{exits: make(map[int]bool), clean: true}
	relCap := len(m.Code) + 1
	visited := make(map[int]map[int]bool)
	exitRels := make(map[int]map[int]bool)
	type work struct{ pc, rel int }
	var queue []work
	post := func(pc, rel int) {
		if rel < 1 {
			return
		}
		if rel > relCap {
			p.poison = true
			p.clean = false
			return
		}
		if visited[pc] == nil {
			visited[pc] = make(map[int]bool, 2)
		}
		if visited[pc][rel] {
			return
		}
		visited[pc][rel] = true
		queue = append(queue, work{pc, rel})
	}
	for _, s := range succs(m, ep) {
		post(s, 1)
	}
	for len(queue) > 0 {
		w := queue[0]
		queue = queue[1:]
		rel := w.rel
		switch m.Code[w.pc].Op {
		case bytecode.MONITORENTER:
			rel++
		case bytecode.MONITOREXIT:
			if exitRels[w.pc] == nil {
				exitRels[w.pc] = make(map[int]bool, 1)
			}
			exitRels[w.pc][w.rel] = true
			if w.rel == 1 {
				// This exit releases our acquisition; the continuation
				// runs un-held and is no longer our concern.
				p.exits[w.pc] = true
				continue
			}
			rel--
		case bytecode.WAIT:
			// A wait suspends (and releases/re-acquires its own monitor)
			// while ours is conceptually held; an elided section must not
			// contain one.
			p.clean = false
		case bytecode.RETURN, bytecode.IRETURN, bytecode.THROW, bytecode.RETHROW:
			// The acquisition leaks past a terminal instruction.
			p.clean = false
			continue
		}
		for _, s := range succs(m, w.pc) {
			post(s, rel)
		}
	}
	// An exit pc reachable both as our release (rel 1) and as a nested
	// release (rel > 1) is ambiguous: the runtime cannot tell from the pc
	// alone which acquisition it closes.
	for pc := range p.exits {
		if len(exitRels[pc]) > 1 {
			p.clean = false
		}
	}
	// Exception handlers covering an in-section pc. Three shapes are
	// benign, everything else defeats the elision:
	//
	//   - rollback trampolines: a rollback releases before its handler
	//     runs, and a confined monitor is never a revocation target;
	//   - THIS enter's compensation handler — the rewriter brackets every
	//     sync block with `load k; monitorexit; rethrow` (protected range
	//     starting right after the enter) so an exception releases the
	//     monitor before unwinding. Its MONITOREXIT releases exactly our
	//     acquisition, so it joins the exit set and the runtime elides the
	//     exception path too;
	//   - compensation handlers of nested or sibling enters, which release
	//     their own acquisitions and rethrow without touching ours.
	//
	// A user handler (any other shape) can observe the unwound acquisition
	// — and in non-elided mode the VM's sync-stack dispatch interacts with
	// it there — so the enter is not cleanly bracketed.
	for _, h := range m.Handlers {
		if h.Catch == bytecode.RollbackClass {
			continue
		}
		if epc := compensationExit(m, h); epc >= 0 {
			if h.From == ep+1 {
				p.exits[epc] = true
			}
			continue
		}
		for pc := h.From; pc < h.To && pc < len(m.Code); pc++ {
			if len(visited[pc]) > 0 {
				p.clean = false
			}
		}
	}
	return p
}

// compensationExit reports the MONITOREXIT pc of a rewriter-shaped
// monitor-compensation handler — a body of exactly `load k; monitorexit;
// rethrow` — or -1 for any other handler.
func compensationExit(m *bytecode.Method, h bytecode.Handler) int {
	t := h.Target
	if t >= 0 && t+2 < len(m.Code) &&
		m.Code[t].Op == bytecode.LOAD &&
		m.Code[t+1].Op == bytecode.MONITOREXIT &&
		m.Code[t+2].Op == bytecode.RETHROW {
		return t + 1
	}
	return -1
}

// allocSite locates one reachable NEWOBJ instruction.
type allocSite struct {
	mi *methodInfo
	pc int
}

// allocIndex maps each reachable allocation's behavioral lock name
// ("new:Class@method@pc") to its site.
func (f *Facts) allocIndex() map[string]allocSite {
	allocs := make(map[string]allocSite)
	for _, m := range f.prog.Methods {
		mi := f.methods[m.Name]
		for pc, in := range m.Code {
			if in.Op == bytecode.NEWOBJ && mi.depth[pc] >= 0 {
				allocs[fmt.Sprintf("new:%s@%s@%d", in.S, m.Name, pc)] = allocSite{mi, pc}
			}
		}
	}
	return allocs
}

// confinedReceiverSlots returns the field slot names ("field:#N") whose
// every thread-reachable access dereferences a receiver that must-alias a
// thread-confined allocation site. The lockset pass cannot credit a
// multi-instance lock with protecting such a slot (two threads may hold
// two distinct instances), but confinement is the stronger fact: each
// instance is reachable only by its allocating thread, so no access pair
// on the slot can ever be concurrent. The symbolic name dataflow
// (contracts.go) supplies must-alias — its flat lattice drops to unknown
// on any merge of distinct origins — and allocEscape supplies the
// confinement proof per origin site. computeRaces subtracts these slots
// from the candidate race set, which in turn lets the race-free
// certificate pass cover them.
func (f *Facts) confinedReceiverSlots() map[string]bool {
	allocs := f.allocIndex()
	reach := f.threadReachability()
	classOf := make(map[string]string)
	siteConfined := func(name string) bool {
		cls, ok := classOf[name]
		if !ok {
			if site, found := allocs[name]; found {
				cls = f.allocEscape(site.mi, site.pc).class()
			} else {
				cls = UnknownClass
			}
			classOf[name] = cls
		}
		return cls == ConfinedClass
	}
	allConfined := make(map[string]bool)
	for _, m := range f.prog.Methods {
		if len(reach[m.Name]) == 0 {
			continue
		}
		mi := f.methods[m.Name]
		var states []*nameState
		statesDone := false
		for pc, in := range m.Code {
			var slot string
			var recvDepth int
			switch in.Op {
			case bytecode.GETFIELD:
				slot, recvDepth = fmt.Sprintf("field:#%d", in.A), 1
			case bytecode.PUTFIELD, bytecode.PUTFIELDRAW:
				slot, recvDepth = fmt.Sprintf("field:#%d", in.A), 2
			default:
				continue
			}
			if mi.depth[pc] < 0 {
				continue
			}
			if _, ok := allConfined[slot]; !ok {
				allConfined[slot] = true
			}
			if !statesDone {
				states = f.nameStates(mi)
				statesDone = true
			}
			name := ""
			if states != nil && states[pc] != nil && len(states[pc].stack) >= recvDepth {
				name = states[pc].stack[len(states[pc].stack)-recvDepth]
			}
			if !strings.HasPrefix(name, "new:") || !siteConfined(name) {
				allConfined[slot] = false
			}
		}
	}
	out := make(map[string]bool)
	for slot, ok := range allConfined {
		if ok {
			out[slot] = true
		}
	}
	return out
}

// escapeResults is the pure derivation shared by computeEscape (which
// caches it on Facts) and VerifyCertificates (which re-derives it to
// check the certificate set): the confinement classification of every
// acquired multi-instance lock name, and the elidable confined
// MONITORENTER sites with their paired exit pcs.
func (f *Facts) escapeResults() (confs []Confinement, elide map[Pos][]int) {
	// Behavioral name and acquisition sites per multi-instance lock.
	lockOf := make(map[Pos]string, len(f.Sections))
	sites := make(map[string][]Pos)
	for _, s := range f.Sections {
		name := s.Lock
		if !s.SyncMethod {
			name = f.behavLockID(f.methods[s.Enter.Method], s.Enter.PC)
		}
		lockOf[s.Enter] = name
		if multiInstance(name) {
			sites[name] = append(sites[name], s.Enter)
		}
	}

	// Allocation-site index: behavioral name -> (method, NEWOBJ pc).
	allocs := f.allocIndex()

	reach := f.threadReachability()
	names := make([]string, 0, len(sites))
	for name := range sites {
		names = append(names, name)
	}
	sort.Strings(names)

	escOf := make(map[string]escInfo)
	for _, name := range names {
		sortPos(sites[name])
		c := Confinement{Lock: name, Sites: sites[name]}
		switch {
		case strings.HasPrefix(name, "new:"):
			site, ok := allocs[name]
			if !ok {
				c.Class = UnknownClass
				c.Reason = "allocation site not found in this program"
				break
			}
			info := f.allocEscape(site.mi, site.pc)
			escOf[name] = info
			c.Class = info.class()
			at := Pos{site.mi.m.Name, site.pc}
			switch c.Class {
			case ConfinedClass:
				c.Reason = fmt.Sprintf("allocation at %v never escapes: no alias is stored to the heap, spawned, returned or passed on", at)
			case SharedClass:
				c.Reason = fmt.Sprintf("allocation at %v escapes: an alias is stored into the heap or published to a spawned thread", at)
			default:
				c.Reason = fmt.Sprintf("allocation at %v flows into a call, native or return; confinement undecidable", at)
			}
		default: // field:#N / array:elem
			threads := make(map[string]bool)
			for _, p := range sites[name] {
				for t := range reach[p.Method] {
					threads[t] = true
				}
			}
			if len(threads) <= 1 {
				c.Class = ConfinedClass
				c.Reason = "every acquiring method is reachable by at most one thread identity"
			} else {
				ts := make([]string, 0, len(threads))
				for t := range threads {
					ts = append(ts, t)
				}
				sort.Strings(ts)
				c.Class = SharedClass
				c.Reason = fmt.Sprintf("acquiring methods reachable by %d thread identities (%s)", len(ts), strings.Join(ts, ","))
			}
		}
		confs = append(confs, c)
	}

	// Whole-monitor elision: confined, never-waited "new:" locks whose
	// explicit MONITORENTER brackets exactly, with exits used by no other
	// enter in the method.
	elide = make(map[Pos][]int)
	type enterInfo struct {
		pos Pos
		p   pairing
	}
	byMethod := make(map[string][]enterInfo)
	for _, s := range f.Sections {
		if s.SyncMethod {
			continue
		}
		name := lockOf[s.Enter]
		info, ok := escOf[name]
		if !ok || info.class() != ConfinedClass || info.synced {
			continue
		}
		mi := f.methods[s.Enter.Method]
		byMethod[s.Enter.Method] = append(byMethod[s.Enter.Method],
			enterInfo{s.Enter, monitorPairing(mi.m, s.Enter.PC)})
	}
	methodsWith := make([]string, 0, len(byMethod))
	for name := range byMethod {
		methodsWith = append(methodsWith, name)
	}
	sort.Strings(methodsWith)
	for _, mname := range methodsWith {
		mi := f.methods[mname]
		// Exit exclusivity must account for EVERY enter in the method, not
		// just the candidates: a non-confined enter sharing an exit pc with
		// a confined one makes the exit's runtime behavior ambiguous.
		users := make(map[int]int)
		poisoned := false
		for pc, in := range mi.m.Code {
			if in.Op != bytecode.MONITORENTER || mi.depth[pc] < 0 {
				continue
			}
			p := monitorPairing(mi.m, pc)
			if p.poison {
				poisoned = true
			}
			for e := range p.exits {
				users[e]++
			}
		}
		for _, ei := range byMethod[mname] {
			if !ei.p.clean || poisoned {
				continue
			}
			exclusive := true
			exits := make([]int, 0, len(ei.p.exits))
			for e := range ei.p.exits {
				if users[e] != 1 {
					exclusive = false
				}
				exits = append(exits, e)
			}
			if !exclusive {
				continue
			}
			sort.Ints(exits)
			elide[ei.pos] = exits
		}
	}
	return confs, elide
}

// computeEscape runs the confinement classification and caches its
// results on Facts. Runs after computeRaces (threadReachability shape)
// and before computePermissions (which certifies the elision sites).
func (f *Facts) computeEscape() {
	f.Confinements, f.confined = f.escapeResults()
}

// ConfinedExits returns the MONITOREXIT pcs paired with the confined,
// elidable MONITORENTER at (method, pc); ok is false when the enter is
// not an elision site. Callers must still demand the CertConfined
// certificates via RequireCert before acting.
func (f *Facts) ConfinedExits(method string, pc int) ([]int, bool) {
	exits, ok := f.confined[Pos{method, pc}]
	return exits, ok
}

// LockConfinement returns the confinement class of a behavioral lock
// name, or "" when the name was not classified (not acquired, or not a
// multi-instance name).
func (f *Facts) LockConfinement(lock string) string {
	for _, c := range f.Confinements {
		if c.Lock == lock {
			return c.Class
		}
	}
	return ""
}

// EscapeRegressions returns the allocation-site ("new:") lock names that
// failed confinement — the findings rvmlint -fail-on-escape-regression
// turns into a non-zero exit. Field/array names are excluded: sharing a
// heap-reachable lock is normal, publishing a scratch object is the
// regression.
func (f *Facts) EscapeRegressions() []Confinement {
	var out []Confinement
	for _, c := range f.Confinements {
		if strings.HasPrefix(c.Lock, "new:") && c.Class != ConfinedClass {
			out = append(out, c)
		}
	}
	return out
}

// ConfinedElisionSites counts the certified whole-monitor elision sites
// (enter and exit instructions both count — each compiles to a no-op).
func (f *Facts) ConfinedElisionSites() int {
	n := 0
	for _, exits := range f.confined {
		n += 1 + len(exits)
	}
	return n
}

// RaceFreeSlotNames returns the slot names carried by the issued
// race-free certificates — by construction, exactly the obligation set
// VerifyCertificates re-derives.
func (f *Facts) RaceFreeSlotNames() map[string]bool {
	out := make(map[string]bool)
	for _, c := range f.Certs {
		if c.Kind == CertRaceFree {
			out[c.Slot] = true
		}
	}
	return out
}

// raceFreeObligations derives the certified-race-free slot set: every
// heap slot accessed from thread-reachable code that no candidate race
// and no volatile-bypass finding names, anchored at its first access
// position. The lockset pass over-approximates reachable accesses and
// under-approximates protection, so a slot outside its finding set is
// race-free on every execution; the anchor makes the obligation a
// (method, pc, kind) key like every other certificate.
func (f *Facts) raceFreeObligations() map[string]Pos {
	reach := f.threadReachability()
	first := make(map[string]Pos)
	note := func(slot string, pos Pos) {
		cur, ok := first[slot]
		if !ok || pos.Method < cur.Method || (pos.Method == cur.Method && pos.PC < cur.PC) {
			first[slot] = pos
		}
	}
	staticSlot := func(idx int) string {
		if idx >= 0 && idx < len(f.prog.Statics) {
			return "static:" + f.prog.Statics[idx].Name
		}
		return fmt.Sprintf("static:#%d", idx)
	}
	for _, m := range f.prog.Methods {
		if len(reach[m.Name]) == 0 {
			continue
		}
		mi := f.methods[m.Name]
		for pc, in := range m.Code {
			if mi.depth[pc] < 0 {
				continue
			}
			pos := Pos{m.Name, pc}
			switch in.Op {
			case bytecode.GETSTATIC, bytecode.PUTSTATIC, bytecode.PUTSTATICRAW:
				note(staticSlot(in.A), pos)
			case bytecode.GETFIELD, bytecode.PUTFIELD, bytecode.PUTFIELDRAW:
				note(fmt.Sprintf("field:#%d", in.A), pos)
			case bytecode.ALOAD, bytecode.ASTORE, bytecode.ASTORERAW:
				note("array:elem", pos)
			}
		}
	}
	for slot := range f.RaceSlots() {
		delete(first, slot)
	}
	return first
}

// RenderEscape formats the confinement findings as deterministic text
// (the rvmlint -escape section).
func (f *Facts) RenderEscape() string {
	var b strings.Builder
	var nc, ns, nu int
	for _, c := range f.Confinements {
		switch c.Class {
		case ConfinedClass:
			nc++
		case SharedClass:
			ns++
		default:
			nu++
		}
	}
	fmt.Fprintf(&b, "confinement: %d multi-instance locks (%d thread-confined, %d shared, %d unknown)\n",
		len(f.Confinements), nc, ns, nu)
	for _, c := range f.Confinements {
		fmt.Fprintf(&b, "  %s  %s\n    %s\n", c.Lock, c.Class, c.Reason)
		for _, p := range c.Sites {
			if exits, ok := f.confined[p]; ok {
				fmt.Fprintf(&b, "    elide whole monitor at %v (exit pcs %v)\n", p, exits)
			}
		}
	}
	obls := make([]string, 0)
	for _, c := range f.Certs {
		if c.Kind == CertRaceFree {
			obls = append(obls, fmt.Sprintf("  %s  first access at %v", c.Slot, c.Pos))
		}
	}
	fmt.Fprintf(&b, "race-free slots: %d certified\n", len(obls))
	sort.Strings(obls)
	for _, l := range obls {
		b.WriteString(l + "\n")
	}
	return b.String()
}
