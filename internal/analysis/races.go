package analysis

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/bytecode"
)

// Static data-race candidates (the Eraser-style lockset half of the
// sanitizer; internal/race is the dynamic half).
//
// For every heap access reachable from a declared thread the pass computes
// a MUST-HELD lockset: the monitors that are provably held on every
// execution reaching the access. Per slot, any pair of accesses with at
// least one write, disjoint must-locksets, not both volatile, and reachable
// by two distinct threads is a candidate race. Because protection is
// under-approximated (only stable lock identities count, caller contexts
// are intersected over all call sites) and access reachability is
// over-approximated, every dynamically observable race is contained in the
// candidate set — the containment the differential harness in
// internal/race checks over the example programs.
//
// Under-approximating protection:
//
//   - Only "static:NAME" and "recv:NAME" lock identities protect an access.
//     "new:"/"local:"/"argN:" ids name potentially distinct objects per
//     execution, so two accesses under the "same" such id may in fact hold
//     different monitors.
//
//   - A section's lock counts at pc only when the verifier's static monitor
//     depth proves some monitor is held on every path there; a
//     synchronized method's receiver counts everywhere in its body.
//
//   - A callee's inherited lockset is the intersection over all reachable
//     call sites of (caller's context ∪ caller's locks at the site);
//     thread roots start with the empty context.
//
// Thread-local objects are elided with a freshness variant that kills all
// facts the moment a fresh reference escapes (stored anywhere, passed to
// any call): a reference fresh at its access point was never published, so
// no other thread can reach it. Volatile accesses get release/acquire
// semantics dynamically, so volatile/volatile pairs are exempt; mixed
// volatile/plain declarations at one field index and barrier-elided raw
// stores to volatile slots defeat that exemption and are flagged as
// volatile-bypass findings.

// Race is one candidate data race: a slot with at least one unprotected
// racy access pair. Writes/Reads list only the sites that participate in
// some racy pair.
type Race struct {
	Slot    string   `json:"slot"`
	Threads []string `json:"threads"`
	Writes  []Pos    `json:"writes"`
	Reads   []Pos    `json:"reads,omitempty"`
}

// VolatileBypass flags an access pattern that defeats the volatile
// exemption on a slot: a field index declared volatile in one class and
// plain in another ("mixed-declaration"), or a barrier-elided raw store to
// a volatile slot ("raw-store").
type VolatileBypass struct {
	Slot   string `json:"slot"`
	Kind   string `json:"kind"` // "mixed-declaration" or "raw-store"
	Pos    Pos    `json:"pos"`
	Detail string `json:"detail,omitempty"`
}

// saccess is one reachable heap access with its static protection facts.
type saccess struct {
	pos     Pos
	write   bool
	vol     bool
	lockset map[string]bool
	threads map[string]bool
}

// stableLock reports whether a lock identity names the same monitor object
// across executions, so holding it genuinely orders two accesses.
func stableLock(id string) bool {
	return strings.HasPrefix(id, "static:") || strings.HasPrefix(id, "recv:")
}

// computeRaces runs the lockset pass, filling Facts.Races and
// Facts.Bypasses.
func (f *Facts) computeRaces(d *derivation) {
	reach := d.threadReach()
	if len(reach) == 0 {
		return // no declared threads: nothing can race
	}
	sectionsOf := make(map[string][]*Section)
	for _, s := range f.Sections {
		sectionsOf[s.Enter.Method] = append(sectionsOf[s.Enter.Method], s)
	}
	ctx := f.contextLocksets(reach, sectionsOf)

	// Volatile classification per field index: an access is volatile only
	// when EVERY class declaring that index declares it volatile; a mix
	// leaves plain accesses possible on the same slot.
	decl := make(map[int]int)
	volDecl := make(map[int]int)
	volName := make(map[int]string)
	for _, c := range f.prog.Classes {
		for i, fld := range c.Fields {
			decl[i]++
			if fld.Volatile {
				volDecl[i]++
				if _, ok := volName[i]; !ok {
					volName[i] = c.Name + "." + fld.Name
				}
			}
		}
	}
	allVol := func(idx int) bool { return decl[idx] > 0 && volDecl[idx] == decl[idx] }
	someVol := func(idx int) bool { return volDecl[idx] > 0 }

	perSlot := make(map[string][]saccess)
	bypassSeen := make(map[VolatileBypass]bool)
	bypass := func(b VolatileBypass) {
		if !bypassSeen[b] {
			bypassSeen[b] = true
			f.Bypasses = append(f.Bypasses, b)
		}
	}
	staticVol := func(idx int) bool {
		return idx >= 0 && idx < len(f.prog.Statics) && f.prog.Statics[idx].Volatile
	}

	for _, m := range f.prog.Methods {
		threads := reach[m.Name]
		if len(threads) == 0 {
			continue
		}
		mi := f.methods[m.Name]
		var fresh []*slots[bool]
		freshAt := func(pc, receiverDepth int) bool {
			if fresh == nil {
				fresh = f.freshness(mi, true)
			}
			return fresh[pc].top(receiverDepth)
		}
		for pc, in := range m.Code {
			if mi.depth[pc] < 0 {
				continue // unreachable
			}
			pos := Pos{m.Name, pc}
			var (
				slot          string
				write, vol    bool
				receiverDepth int // stack slots from top to the target ref; 0 = none
			)
			switch in.Op {
			case bytecode.GETSTATIC:
				slot, vol = f.staticSlot(in.A), staticVol(in.A)
			case bytecode.PUTSTATIC:
				slot, write, vol = f.staticSlot(in.A), true, staticVol(in.A)
			case bytecode.PUTSTATICRAW:
				slot, write = f.staticSlot(in.A), true
				if staticVol(in.A) {
					bypass(VolatileBypass{Slot: slot, Kind: "raw-store", Pos: pos})
				}
			case bytecode.GETFIELD:
				slot, vol, receiverDepth = fmt.Sprintf("field:#%d", in.A), allVol(in.A), 1
				if someVol(in.A) && !allVol(in.A) {
					bypass(VolatileBypass{Slot: slot, Kind: "mixed-declaration", Pos: pos, Detail: volName[in.A]})
				}
			case bytecode.PUTFIELD:
				slot, write, vol, receiverDepth = fmt.Sprintf("field:#%d", in.A), true, allVol(in.A), 2
				if someVol(in.A) && !allVol(in.A) {
					bypass(VolatileBypass{Slot: slot, Kind: "mixed-declaration", Pos: pos, Detail: volName[in.A]})
				}
			case bytecode.PUTFIELDRAW:
				slot, write, receiverDepth = fmt.Sprintf("field:#%d", in.A), true, 2
				if someVol(in.A) {
					bypass(VolatileBypass{Slot: slot, Kind: "raw-store", Pos: pos, Detail: volName[in.A]})
				}
			case bytecode.ALOAD:
				slot, receiverDepth = "array:elem", 2
			case bytecode.ASTORE:
				slot, write, receiverDepth = "array:elem", true, 3
			case bytecode.ASTORERAW:
				slot, write, receiverDepth = "array:elem", true, 3
			default:
				continue
			}
			if receiverDepth > 0 && freshAt(pc, receiverDepth) {
				continue // provably never published: thread-local
			}
			perSlot[slot] = append(perSlot[slot], saccess{
				pos:     pos,
				write:   write,
				vol:     vol,
				lockset: unionSet(ctx[m.Name], f.localMust(mi, pc, sectionsOf[m.Name])),
				threads: threads,
			})
		}
	}

	slots := make([]string, 0, len(perSlot))
	for s := range perSlot {
		slots = append(slots, s)
	}
	sort.Strings(slots)
	// Confinement refinement (escape.go): a field slot whose every access
	// dereferences a provably thread-confined object cannot race even
	// though its multi-instance lock earns no lockset credit.
	confinedRecv := f.confinedReceiverSlots(d)
	for _, slot := range slots {
		if confinedRecv[slot] {
			continue
		}
		accs := perSlot[slot]
		racy := make([]bool, len(accs))
		for i := range accs {
			for j := i + 1; j < len(accs); j++ {
				a, b := &accs[i], &accs[j]
				if !a.write && !b.write {
					continue
				}
				if a.vol && b.vol {
					continue // ordered by the volatile acquire
				}
				if countUnion(a.threads, b.threads) < 2 {
					continue // only one thread can ever perform the pair
				}
				if intersects(a.lockset, b.lockset) {
					continue // a common monitor orders every such pair
				}
				racy[i], racy[j] = true, true
			}
		}
		r := Race{Slot: slot}
		threads := make(map[string]bool)
		seenPos := make(map[Pos]bool)
		for i, a := range accs {
			if !racy[i] || seenPos[a.pos] {
				continue
			}
			seenPos[a.pos] = true
			if a.write {
				r.Writes = append(r.Writes, a.pos)
			} else {
				r.Reads = append(r.Reads, a.pos)
			}
			for t := range a.threads {
				threads[t] = true
			}
		}
		if len(r.Writes)+len(r.Reads) == 0 {
			continue
		}
		for t := range threads {
			r.Threads = append(r.Threads, t)
		}
		sort.Strings(r.Threads)
		sortPos(r.Writes)
		sortPos(r.Reads)
		f.Races = append(f.Races, r)
	}
}

// staticSlot names the heap slot of static idx.
func (f *Facts) staticSlot(idx int) string {
	if idx >= 0 && idx < len(f.prog.Statics) {
		return "static:" + f.prog.Statics[idx].Name
	}
	return fmt.Sprintf("static:#%d", idx)
}

// threadReachability maps each method to the set of thread identities that
// can (transitively) call it: the declared threads plus one pseudo-root per
// SPAWN target. Uses the full call graph: over-approximating reachability
// only adds candidate accesses.
//
// A spawn target gets TWO pseudo-identities ("spawn:M" and "spawn:M'"):
// one spawn site can start several concurrent instances of the same method
// (a spawn inside a loop, or a spawning method itself running on two
// threads), so an access pair entirely inside a spawned body must still
// count as reachable by two threads. Treating every spawn site as live
// regardless of its own reachability is a further over-approximation in
// the same safe direction.
func (f *Facts) threadReachability() map[string]map[string]bool {
	reach := make(map[string]map[string]bool)
	var w callWork
	add := func(name, tname string) {
		if reach[name] == nil {
			reach[name] = make(map[string]bool)
		}
		if !reach[name][tname] {
			reach[name][tname] = true
			w.push(name)
		}
	}
	for _, td := range f.prog.Threads {
		if f.methods[td.Method] != nil {
			add(td.Method, td.Name)
		}
	}
	for _, m := range f.prog.Methods {
		mi := f.methods[m.Name]
		for pc, in := range m.Code {
			if in.Op == bytecode.SPAWN && mi.depth[pc] >= 0 && f.methods[in.S] != nil {
				add(in.S, "spawn:"+in.S)
				add(in.S, "spawn:"+in.S+"'")
			}
		}
	}
	w.run(func(name string) {
		for _, c := range f.CallGraph[name] {
			for t := range reach[name] {
				add(c, t)
			}
		}
	})
	return reach
}

// localMust returns the stable locks provably held at (mi, pc): the
// receiver of a synchronized method everywhere in its body, and the locks
// of sections covering pc when the static monitor depth proves some
// monitor is held on every path to pc. (With several same-depth sections
// covering one pc on alternative paths this over-claims protection — the
// documented approximation; assembler-structured sync blocks are exact.)
func (f *Facts) localMust(mi *methodInfo, pc int, sections []*Section) map[string]bool {
	var out map[string]bool
	add := func(id string) {
		if !stableLock(id) {
			return
		}
		if out == nil {
			out = make(map[string]bool, 2)
		}
		out[id] = true
	}
	for _, s := range sections {
		if s.SyncMethod {
			add(s.Lock)
			continue
		}
		if mi.depth[pc] < 1 {
			continue
		}
		i := sort.SearchInts(s.PCs, pc)
		if i < len(s.PCs) && s.PCs[i] == pc {
			add(s.Lock)
		}
	}
	return out
}

// contextLocksets runs the caller-context fixpoint: ctx(root) = ∅ for
// thread roots; ctx(callee) = ∩ over reachable call sites of
// (ctx(caller) ∪ localMust at the site). nil means "not yet constrained"
// (⊤); the intersection only shrinks, so the fixpoint terminates.
func (f *Facts) contextLocksets(reach map[string]map[string]bool, sectionsOf map[string][]*Section) map[string]map[string]bool {
	ctx := make(map[string]map[string]bool) // absent: ⊤
	var w callWork
	meet := func(name string, site map[string]bool) {
		cur, known := ctx[name]
		if !known {
			ctx[name] = site
			w.push(name)
		} else if shrinkTo(cur, site) {
			w.push(name)
		}
	}
	for _, td := range f.prog.Threads {
		if f.methods[td.Method] != nil {
			meet(td.Method, make(map[string]bool))
		}
	}
	// A spawned body starts on a fresh thread holding nothing: seed every
	// SPAWN target with the empty context so locks held at the spawn site
	// never count as protecting the spawned code.
	for _, m := range f.prog.Methods {
		mi := f.methods[m.Name]
		for pc, in := range m.Code {
			if in.Op == bytecode.SPAWN && mi.depth[pc] >= 0 && f.methods[in.S] != nil {
				meet(in.S, make(map[string]bool))
			}
		}
	}
	w.run(func(name string) {
		mi := f.methods[name]
		for pc, in := range mi.m.Code {
			if in.Op != bytecode.INVOKE || mi.depth[pc] < 0 {
				continue
			}
			if f.methods[in.S] == nil || len(reach[in.S]) == 0 {
				continue
			}
			meet(in.S, unionSet(ctx[name], f.localMust(mi, pc, sectionsOf[name])))
		}
	})
	return ctx
}

// unionSet returns a fresh set holding a ∪ b (never nil).
func unionSet(a, b map[string]bool) map[string]bool {
	out := make(map[string]bool, len(a)+len(b))
	for k := range a {
		out[k] = true
	}
	for k := range b {
		out[k] = true
	}
	return out
}

// shrinkTo intersects dst with src in place; reports whether dst changed.
func shrinkTo(dst, src map[string]bool) bool {
	changed := false
	for k := range dst {
		if !src[k] {
			delete(dst, k)
			changed = true
		}
	}
	return changed
}

func intersects(a, b map[string]bool) bool {
	if len(a) > len(b) {
		a, b = b, a
	}
	for k := range a {
		if b[k] {
			return true
		}
	}
	return false
}

func countUnion(a, b map[string]bool) int {
	n := len(a)
	for k := range b {
		if !a[k] {
			n++
		}
	}
	return n
}

func sortPos(ps []Pos) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].Method != ps[j].Method {
			return ps[i].Method < ps[j].Method
		}
		return ps[i].PC < ps[j].PC
	})
}

// RaceSlots returns the candidate slot set: every slot named by a race or
// volatile-bypass finding. The differential harness checks dynamic reports
// against it.
func (f *Facts) RaceSlots() map[string]bool {
	out := make(map[string]bool, len(f.Races)+len(f.Bypasses))
	for _, r := range f.Races {
		out[r.Slot] = true
	}
	for _, b := range f.Bypasses {
		out[b.Slot] = true
	}
	return out
}

// RenderRaces formats the race findings as deterministic text (the
// rvmlint -races section).
func (f *Facts) RenderRaces() string {
	var b strings.Builder
	fmt.Fprintf(&b, "candidate races: %d  volatile bypasses: %d\n", len(f.Races), len(f.Bypasses))
	for _, r := range f.Races {
		fmt.Fprintf(&b, "  race: %s  threads=%s\n", r.Slot, strings.Join(r.Threads, ","))
		for _, p := range r.Writes {
			fmt.Fprintf(&b, "    write at %v\n", p)
		}
		for _, p := range r.Reads {
			fmt.Fprintf(&b, "    read  at %v\n", p)
		}
	}
	for _, v := range f.Bypasses {
		if v.Detail != "" {
			fmt.Fprintf(&b, "  volatile-bypass: %s  %s (%s) at %v\n", v.Slot, v.Kind, v.Detail, v.Pos)
		} else {
			fmt.Fprintf(&b, "  volatile-bypass: %s  %s at %v\n", v.Slot, v.Kind, v.Pos)
		}
	}
	return b.String()
}
