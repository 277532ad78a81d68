package analysis

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/bytecode"
)

// Section discovery and the revocability classifier.
//
// For every MONITORENTER site the analysis computes the set of instructions
// that may execute while that acquisition is still held, by propagating a
// relative monitor depth from the enter site through the CFG: the depth
// starts at 1 after the enter, rises at nested MONITORENTERs, falls at
// MONITOREXITs, and propagation stops where it reaches 0 (the matching
// exit). Exception-handler targets use a union rule — if ANY covered pc may
// execute while held, the handler target may too — which is deliberately
// more conservative than the verifier's entry-depth rule: a hand-written
// handler spanning a synchronized block genuinely enters while the monitor
// is held, and under-approximating here would unsoundly elide barriers
// inside it.
//
// A section is statically non-revocable when one of the paper's dynamic
// triggers (§2.2) is reachable inside it: a NATIVE call, a volatile read,
// or a WAIT (any wait — even a wait on the section's own monitor leaves the
// section non-revocable at the resume point, so pre-marking at enter only
// denies revocations the runtime would deny moments later). Triggers are
// searched in the section's own instructions and in the whole body of every
// method transitively invocable while the monitor is held.

// heldFrom returns, ascending, the pcs reachable from the MONITORENTER at
// ep while that acquisition is held: every pc with a relative depth ≥ 1
// (depthsFrom, union handler rule). When the depth tracking gives up it
// returns every pc (conservative: more held pcs only suppress elisions).
func heldFrom(m *bytecode.Method, ep int) []int {
	in, blowup := depthsFrom(m, ep, true)
	var held []int
	for pc, st := range in {
		if st != nil || blowup {
			held = append(held, pc)
		}
	}
	return held
}

// depthSet is the state of the relative-depth passes (heldFrom,
// monitorPairing): the relative depths, ascending, at which the tracked
// MONITORENTER's acquisition may be held (the acquisition itself is depth
// 1; nested enters raise it, exits lower it, depth 0 is released).
type depthSet []int

func (d *depthSet) copyFrom(src *depthSet) { *d = append((*d)[:0], *src...) }

func (d *depthSet) live() bool { return len(*d) > 0 }

// union adds src's depths to d and reports whether d changed.
func (d *depthSet) union(src depthSet) (changed bool) {
	for _, k := range src {
		if i, found := slices.BinarySearch(*d, k); !found {
			*d = slices.Insert(*d, i, k)
			changed = true
		}
	}
	return changed
}

// enter raises every depth by one. A depth past limit is dropped and
// reported: the tracking gave up.
func (d *depthSet) enter(limit int) (overflow bool) {
	for i := range *d {
		(*d)[i]++
	}
	if n := len(*d); n > 0 && (*d)[n-1] > limit {
		*d = (*d)[:n-1]
		return true
	}
	return false
}

// exit lowers every depth by one; an acquisition reaching depth 0 is
// released and leaves the set.
func (d *depthSet) exit() {
	for i := range *d {
		(*d)[i]--
	}
	if len(*d) > 0 && (*d)[0] == 0 {
		*d = (*d)[1:]
	}
}

// depthsFrom solves the relative depths of the MONITORENTER at ep's
// acquisition over m, starting at depth 1 after the enter and stopping
// where it is released. A hand-written handler that loops back through
// its own covered enter can raise the depth without bound; past
// len(m.Code)+1 the tracking gives up and blowup is set (the callers then
// assume the worst). With heldRule, handler edges follow heldFrom's union
// rule; without, no handler edge is followed.
func depthsFrom(m *bytecode.Method, ep int, heldRule bool) (in []*depthSet, blowup bool) {
	limit := len(m.Code) + 1
	l := &lattice[depthSet]{
		transfer: func(pc int, st *depthSet) bool {
			switch m.Code[pc].Op {
			case bytecode.MONITORENTER:
				if st.enter(limit) {
					blowup = true
				}
			case bytecode.MONITOREXIT:
				st.exit()
			}
			return true
		},
		join: func(dst, src *depthSet) (bool, bool) { return dst.union(*src), true },
	}
	if heldRule {
		// Union handler rule: an exception at any held pc in the range may
		// transfer to the target with the monitor still held. Seed with the
		// maximum depth observed in the range (over-approximating the depth
		// only extends the held region — conservative). A rollback unwind
		// releases the monitor (and undoes its effects) before control
		// reaches the handler, so the checktarget trampoline runs un-held;
		// seeding it as held would also follow its re-execution back-edge
		// through the enter site again and grow the depth without bound.
		l.handler = func(h bytecode.Handler, in []*depthSet) *depthSet {
			if h.Catch == bytecode.RollbackClass {
				return nil
			}
			top := 0
			for _, st := range in {
				if st != nil {
					top = max(top, (*st)[len(*st)-1])
				}
			}
			if top < 1 {
				return nil
			}
			return &depthSet{top}
		}
	}
	entry := depthSet{1}
	next, n := succs(m, ep)
	in, _ = solve[depthSet](m, l, &entry, next[:n]...)
	return in, blowup
}

// discoverSections builds one Section per MONITORENTER site plus one
// synthetic Section per synchronized method (whose whole body runs held),
// filling methodInfo.held along the way.
func (f *Facts) discoverSections() {
	vol := f.volatileFieldIndices()
	for _, m := range f.prog.Methods {
		mi := f.methods[m.Name]
		mi.held = make([]bool, len(m.Code))
		if m.Synchronized {
			s := &Section{
				Enter:      Pos{m.Name, 0},
				Lock:       "recv:" + baseName(m.Name),
				SyncMethod: true,
			}
			for pc := range m.Code {
				if mi.depth[pc] >= 0 {
					mi.held[pc] = true
					s.PCs = append(s.PCs, pc)
				}
			}
			s.Callees = f.calleeClosure(mi.callees)
			f.classify(s, m, vol)
			f.Sections = append(f.Sections, s)
			f.sectionAt[s.Enter] = s
		}
		for pc, in := range m.Code {
			if in.Op != bytecode.MONITORENTER || mi.depth[pc] < 0 {
				continue
			}
			s := &Section{
				Enter: Pos{m.Name, pc},
				Lock:  f.lockID(mi, pc),
				PCs:   heldFrom(m, pc),
			}
			var invoked []string
			for _, hp := range s.PCs {
				mi.held[hp] = true
				if m.Code[hp].Op == bytecode.INVOKE {
					invoked = append(invoked, m.Code[hp].S)
				}
			}
			s.Callees = f.calleeClosure(invoked)
			f.classify(s, m, vol)
			f.Sections = append(f.Sections, s)
			f.sectionAt[s.Enter] = s
		}
	}
}

// classify scans the section's own pcs and its callee closure for the
// §2.2 triggers and sets NonRevocable/Reasons.
func (f *Facts) classify(s *Section, m *bytecode.Method, vol map[int]string) {
	for _, pc := range s.PCs {
		f.scanTrigger(s, m, pc, vol)
	}
	for _, callee := range s.Callees {
		cm, ok := f.prog.Method(callee)
		if !ok {
			continue
		}
		for pc := range cm.Code {
			f.scanTrigger(s, cm, pc, vol)
		}
	}
	s.NonRevocable = len(s.Reasons) > 0
}

// scanTrigger appends a Reason when the instruction at (m, pc) is one of
// the paper's non-revocability triggers.
func (f *Facts) scanTrigger(s *Section, m *bytecode.Method, pc int, vol map[int]string) {
	in := m.Code[pc]
	switch in.Op {
	case bytecode.NATIVE:
		s.Reasons = append(s.Reasons, Reason{Kind: "native-call", Pos: Pos{m.Name, pc}, Detail: in.S})
	case bytecode.GETSTATIC:
		if in.A >= 0 && in.A < len(f.prog.Statics) && f.prog.Statics[in.A].Volatile {
			s.Reasons = append(s.Reasons, Reason{Kind: "volatile-read", Pos: Pos{m.Name, pc}, Detail: f.prog.Statics[in.A].Name})
		}
	case bytecode.GETFIELD:
		// GETFIELD carries only a field index; without receiver types the
		// read is volatile whenever ANY class declares a volatile field at
		// that index (conservative).
		if name, ok := vol[in.A]; ok {
			s.Reasons = append(s.Reasons, Reason{Kind: "volatile-read", Pos: Pos{m.Name, pc}, Detail: name})
		}
	case bytecode.WAIT:
		s.Reasons = append(s.Reasons, Reason{Kind: "nested-wait", Pos: Pos{m.Name, pc}})
	}
}

// volatileFieldIndices maps field index → "Class.field" for every index at
// which some class declares a volatile field.
func (f *Facts) volatileFieldIndices() map[int]string {
	vol := make(map[int]string)
	for _, c := range f.prog.Classes {
		for i, fld := range c.Fields {
			if fld.Volatile {
				if _, seen := vol[i]; !seen {
					vol[i] = c.Name + "." + fld.Name
				}
			}
		}
	}
	return vol
}

// calleeClosure returns the transitive call-graph closure of the given
// roots, sorted.
func (f *Facts) calleeClosure(roots []string) []string {
	seen := make(map[string]bool)
	var w callWork
	reach := func(name string) {
		if f.methods[name] != nil && !seen[name] {
			seen[name] = true
			w.push(name)
		}
	}
	for _, r := range roots {
		reach(r)
	}
	w.run(func(name string) {
		for _, c := range f.methods[name].callees {
			reach(c)
		}
	})
	if len(seen) == 0 {
		return nil
	}
	out := make([]string, 0, len(seen))
	for name := range seen {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// lockID derives the abstract identity of the monitor object pushed for the
// MONITORENTER at ep. Identities over-merge deliberately ("recv:" merges
// every receiver of a method; "static:" merges by variable) so real
// ordering conflicts surface; the unique "local:" fallback never aliases,
// trading missed cycles for zero false positives on unknown objects.
func (f *Facts) lockID(mi *methodInfo, ep int) string {
	m := mi.m
	if ep > 0 {
		prev := m.Code[ep-1]
		if id := f.objectSource(m, prev, ep-1); id != "" {
			return id
		}
		if prev.Op == bytecode.LOAD {
			return f.localLockID(mi, prev.A, ep)
		}
	}
	return fmt.Sprintf("local:%s@%d", m.Name, ep)
}

// objectSource names the object the instruction at pc pushes when it is
// identifiable by itself: a static variable or an allocation site.
func (f *Facts) objectSource(m *bytecode.Method, in bytecode.Instr, pc int) string {
	switch in.Op {
	case bytecode.GETSTATIC:
		if in.A >= 0 && in.A < len(f.prog.Statics) {
			return "static:" + f.prog.Statics[in.A].Name
		}
	case bytecode.NEWOBJ:
		return fmt.Sprintf("new:%s@%s@%d", in.S, m.Name, pc)
	}
	return ""
}

// localLockID resolves the identity of a local used as a monitor object: if
// every STORE to the local is fed by the same identifiable source (a
// GETSTATIC or a NEWOBJ immediately preceding it), that source is the
// identity; an unwritten parameter is the receiver (local 0) or argument.
func (f *Facts) localLockID(mi *methodInfo, local, ep int) string {
	m := mi.m
	id, stores := storeSource(m, local, func(in bytecode.Instr, pc int) string {
		return f.objectSource(m, in, pc)
	})
	switch {
	case stores == 0 && local == 0 && m.Args > 0:
		return "recv:" + baseName(m.Name)
	case stores == 0 && local < m.Args:
		return fmt.Sprintf("arg%d:%s", local, baseName(m.Name))
	case id != "":
		return id
	}
	return fmt.Sprintf("local:%s@%d", m.Name, ep)
}

// storeSource returns the source every STORE to local is fed by, as
// source names the instruction immediately preceding each store, or ""
// unless all stores have the same named source; stores counts them.
func storeSource(m *bytecode.Method, local int, source func(in bytecode.Instr, pc int) string) (id string, stores int) {
	same := true
	for pc, in := range m.Code {
		if in.Op != bytecode.STORE || in.A != local {
			continue
		}
		src := ""
		if pc > 0 {
			src = source(m.Code[pc-1], pc-1)
		}
		if stores == 0 {
			id = src
		}
		same = same && src != "" && src == id
		stores++
	}
	if !same {
		return "", stores
	}
	return id, stores
}

// baseName strips the rewriter's $impl suffix so a lowered synchronized
// method and its wrapper share one receiver identity.
func baseName(name string) string {
	const suffix = "$impl"
	if len(name) > len(suffix) && name[len(name)-len(suffix):] == suffix {
		return name[:len(name)-len(suffix)]
	}
	return name
}
