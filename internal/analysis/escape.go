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
// (mi, allocPC) over the whole method body: a true slot may hold a
// reference to an object from the site. A solve the transfer cannot model
// leaves the verdict unknown.
func (f *Facts) allocEscape(mi *methodInfo, allocPC int) escInfo {
	m := mi.m
	var info escInfo
	or := func(a, b bool) bool { return a || b }
	l := &lattice[slots[bool]]{
		transfer: func(pc int, st *slots[bool]) bool { return f.escTransfer(mi, pc, allocPC, st, &info) },
		join:     slotJoin(or),
		// An exception at any covered pc transfers to the target with the
		// thrown object on the stack and the LOCALS preserved — aliases
		// survive in locals across the unwind, so the target's locals are
		// the OR over the covered range. Rollback handlers are included:
		// conservative, since more flow only widens the may-alias set.
		handler: coveredSeed(mi, or),
	}
	if _, ok := solve[slots[bool]](m, l, &slots[bool]{locals: make([]bool, m.Locals)}, 0); !ok {
		info.unknown = true
	}
	return info
}

// escTransfer applies one instruction to st in place, recording escape
// events into info; reports ok=false when the instruction cannot be
// modelled against the tracked stack shape.
func (f *Facts) escTransfer(mi *methodInfo, pc, allocPC int, st *slots[bool], info *escInfo) bool {
	in := mi.m.Code[pc]
	tracked := func(n int) bool {
		for k := 1; k <= n; k++ {
			if st.top(k) {
				return true
			}
		}
		return false
	}
	switch in.Op {
	case bytecode.PUTFIELD, bytecode.PUTFIELDRAW, bytecode.PUTSTATIC,
		bytecode.PUTSTATICRAW, bytecode.ASTORE, bytecode.ASTORERAW:
		// The stored VALUE is on top; storing an alias publishes the object
		// into the heap. Storing INTO the object is not an escape of it.
		info.heapEscape = info.heapEscape || tracked(1)
	case bytecode.WAIT, bytecode.NOTIFY, bytecode.NOTIFYALL:
		info.synced = info.synced || tracked(1)
	case bytecode.NATIVE:
		info.unknown = info.unknown || tracked(in.A)
	case bytecode.INVOKE, bytecode.SPAWN:
		callee := f.methods[in.S]
		if callee == nil {
			return false
		}
		if in.Op == bytecode.SPAWN {
			info.heapEscape = info.heapEscape || tracked(callee.m.Args)
		} else {
			info.unknown = info.unknown || tracked(callee.m.Args)
		}
	case bytecode.IRETURN, bytecode.THROW:
		// The value on top leaves the method's view. A THROW names its
		// exception class and pops nothing; the pass still treats its top
		// operand as leaving, and an empty stack there as unmodelled:
		// unknown either way (conservative).
		info.unknown = info.unknown || len(st.stack) == 0 || tracked(1)
	}
	// MONITORENTER/MONITOREXIT just pop: locking the object is its
	// intended use, not an escape.
	if !st.step(f.prog, mi.m, pc) {
		return false
	}
	if in.Op == bytecode.NEWOBJ {
		st.setTop(pc == allocPC)
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

// monitorPairing solves the relative depths of the MONITORENTER at ep —
// the same (pc, depth) space heldFrom explores, but following no handler
// edge — and classifies the acquisition's release structure from them.
// Unlike heldFrom it never gives up early: the full exit set is needed for
// the cross-enter exclusivity check even when the enter itself is not
// cleanly bracketed.
func monitorPairing(m *bytecode.Method, ep int) pairing {
	in, blowup := depthsFrom(m, ep, false)
	p := pairing{exits: make(map[int]bool), clean: !blowup, poison: blowup}
	for pc, st := range in {
		if st == nil {
			continue
		}
		switch m.Code[pc].Op {
		case bytecode.MONITOREXIT:
			// An exit reached at depth 1 releases exactly this acquisition.
			// One also reachable at a nested depth is ambiguous: the runtime
			// cannot tell from the pc alone which acquisition it closes.
			if (*st)[0] == 1 {
				p.exits[pc] = true
				if len(*st) > 1 {
					p.clean = false
				}
			}
		case bytecode.WAIT:
			// A wait suspends (and releases/re-acquires its own monitor)
			// while ours is conceptually held; an elided section must not
			// contain one.
			p.clean = false
		case bytecode.RETURN, bytecode.IRETURN, bytecode.THROW, bytecode.RETHROW:
			// The acquisition leaks past a terminal instruction.
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
		for _, st := range in[h.From:min(h.To, len(m.Code))] {
			if st != nil {
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
				allocs[f.objectSource(m, in, pc)] = allocSite{mi, pc}
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
func (f *Facts) confinedReceiverSlots(d *derivation) map[string]bool {
	allocs := f.allocIndex()
	reach := d.threadReach()
	siteConfined := func(name string) bool {
		site, found := allocs[name]
		return found && d.allocEscape(site).class() == ConfinedClass
	}
	allConfined := make(map[string]bool)
	for _, m := range f.prog.Methods {
		if len(reach[m.Name]) == 0 {
			continue
		}
		mi := f.methods[m.Name]
		var states []*slots[string]
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
			if states == nil {
				states = d.nameStates(mi)
			}
			if name := states[pc].top(recvDepth); !strings.HasPrefix(name, "new:") || !siteConfined(name) {
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
func (f *Facts) escapeResults(d *derivation) (confs []Confinement, elide map[Pos][]int) {
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

	reach := d.threadReach()
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
			info := d.allocEscape(site)
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
	byMethod := make(map[string][]int)
	for _, s := range f.Sections {
		if s.SyncMethod {
			continue
		}
		name := lockOf[s.Enter]
		info, ok := escOf[name]
		if !ok || info.class() != ConfinedClass || info.synced {
			continue
		}
		byMethod[s.Enter.Method] = append(byMethod[s.Enter.Method], s.Enter.PC)
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
		pairings := make(map[int]pairing)
		users := make(map[int]int)
		poisoned := false
		for pc, in := range mi.m.Code {
			if in.Op != bytecode.MONITORENTER || mi.depth[pc] < 0 {
				continue
			}
			p := monitorPairing(mi.m, pc)
			pairings[pc] = p
			if p.poison {
				poisoned = true
			}
			for e := range p.exits {
				users[e]++
			}
		}
		for _, ep := range byMethod[mname] {
			p := pairings[ep]
			if !p.clean || poisoned {
				continue
			}
			exclusive := true
			exits := make([]int, 0, len(p.exits))
			for e := range p.exits {
				if users[e] != 1 {
					exclusive = false
				}
				exits = append(exits, e)
			}
			if !exclusive {
				continue
			}
			sort.Ints(exits)
			elide[Pos{mname, ep}] = exits
		}
	}
	return confs, elide
}

// computeEscape runs the confinement classification and caches its
// results on Facts. Runs after computeRaces (threadReachability shape)
// and before computePermissions (which certifies the elision sites).
func (f *Facts) computeEscape(d *derivation) {
	f.Confinements, f.confined = f.escapeResults(d)
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
func (f *Facts) raceFreeObligations(d *derivation) map[string]Pos {
	reach := d.threadReach()
	first := make(map[string]Pos)
	note := func(slot string, pos Pos) {
		cur, ok := first[slot]
		if !ok || pos.Method < cur.Method || (pos.Method == cur.Method && pos.PC < cur.PC) {
			first[slot] = pos
		}
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
				note(f.staticSlot(in.A), pos)
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
