package analysis

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/bytecode"
)

// Behavioral deadlock analysis.
//
// The SCC pass in lockorder.go reasons about a fixed set of abstract lock
// NAMES: it reports a deadlock only when two or more distinct names form a
// cycle, it deliberately drops self-edges (reentrant re-acquisition of one
// name is not a deadlock for a single object), and its naming gives every
// monitor it cannot trace to a static or receiver a unique "local:" id, so
// locks reached through fields or array elements never alias. Both choices
// are right for zero-false-positive reporting on statically named locks —
// and both make the pass structurally blind to two real deadlock shapes:
//
//  1. Spawned multiplicity. A method that locks a then b deadlocks against
//     a second concurrent instance of ITSELF when a and b come from one
//     multi-instance source (one allocation site run in a loop, one array
//     of locks): thread 1 holds instance x waiting for y while thread 2
//     holds y waiting for x. Under abstraction both acquisitions carry the
//     SAME name, so the only witness is a self-edge — exactly what the SCC
//     pass drops.
//
//  2. Value-dependent aliasing. Two threads locking c1.l then c2.l and
//     c2.l then c1.l never share a syntactic lock expression; only the
//     FIELD the lock flows through is common. Unique "local:" names hide
//     the conflict entirely.
//
// This pass closes both gaps with a behavioral-contract view (after
// Garcia & Laneve's deadlock analysis of contracts with dynamic thread
// creation): each method's contract is the sequence of lock acquisitions
// and SPAWN actions it may perform, abstracted to behavioral lock names;
// contracts unfold through INVOKE and SPAWN until the set of
// (held-lock, acquired-lock) pairs and the set of concurrently live
// contract instances both reach a fixpoint. Circularity is then checked on
// the saturated system:
//
//   - every SCC of two or more behavioral names is a deadlock (the
//     lockorder.go criterion, under the finer naming); and
//
//   - a SELF-edge l -> l is a deadlock when l is a multi-instance name
//     (allocation-site, field- or array-sourced: one name, many objects)
//     AND at least two concurrent thread instances can perform the nested
//     acquisition — two instances suffice to cross-block on two objects of
//     the name. Receiver and argument names are excluded: a nested
//     acquisition through one unchanged variable is the same object on any
//     single execution (plain reentrancy), keeping the pass silent on the
//     ubiquitous reentrant-sync pattern.
//
// Thread multiplicity comes from threadReachability (races.go), which
// models dynamic thread creation: every SPAWN target is a contract root
// carrying two pseudo-identities, because one spawn site may start many
// concurrent instances (spawn in a loop, spawning method itself running
// twice). Declared threads carry one identity each. Findings land in
// Facts.Deadlocks as Cycle values — same shape, same witness edges — and
// render via RenderDeadlocks (rvmlint -deadlocks).

// behavLockID is the behavioral naming: lockID extended so monitors traced
// to a GETFIELD merge per field index and monitors traced to an ALOAD
// merge into one array-element name — directly, or through a local every
// STORE to which is fed by the same such source. Merging over-approximates
// aliasing — the right direction for a may-deadlock report.
func (f *Facts) behavLockID(mi *methodInfo, ep int) string {
	m := mi.m
	if ep > 0 {
		prev := m.Code[ep-1]
		if id := elementSource(prev, ep-1); id != "" {
			return id
		}
		if prev.Op == bytecode.LOAD {
			if id, _ := storeSource(m, prev.A, elementSource); id != "" {
				return id
			}
		}
	}
	return f.lockID(mi, ep)
}

// elementSource names the merged behavioral source of a value a GETFIELD
// or ALOAD pushes.
func elementSource(in bytecode.Instr, _ int) string {
	switch in.Op {
	case bytecode.GETFIELD:
		return fmt.Sprintf("field:#%d", in.A)
	case bytecode.ALOAD:
		return "array:elem"
	}
	return ""
}

// multiInstance reports whether a behavioral name may denote two or more
// distinct monitor objects at once: allocation-site names (one site, many
// executions) and merged field/array names. Static and receiver/argument
// names are excluded — "static:" is one object, and a receiver or argument
// is one object per executing frame.
func multiInstance(id string) bool {
	return strings.HasPrefix(id, "new:") ||
		strings.HasPrefix(id, "field:") ||
		strings.HasPrefix(id, "array:")
}

// computeDeadlocks builds the behavioral lock-order graph and fills
// Facts.Deadlocks. Runs after discoverSections and buildLockOrder.
func (f *Facts) computeDeadlocks(d *derivation) {
	// Recursive contract inference (contracts.go): a nominal recv:/argN:
	// name whose parameter binding closes over concrete names contributes
	// every bound name; recursion saturates the bindings where bounded
	// unfolding would truncate the evidence.
	binds := f.paramBindings(d)
	resolve := func(mi *methodInfo, ep int) []string {
		return resolveLockName(f.behavLockID(mi, ep), mi.m.Name, binds)
	}

	// The saturated acquisition system: discoverSections already has one
	// Section per acquisition site in EVERY method — spawned bodies
	// included — so re-deriving lockorder.go's edges under the behavioral
	// naming, self-edges kept, is the contract unfolding's order component.
	lockOf := make(map[Pos][]string, len(f.Sections))
	for _, s := range f.Sections {
		if s.SyncMethod {
			lockOf[s.Enter] = resolveLockName(s.Lock, s.Enter.Method, binds)
		} else {
			lockOf[s.Enter] = resolve(f.methods[s.Enter.Method], s.Enter.PC)
		}
	}

	var edges []LockEdge
	seen := make(map[LockEdge]bool)
	add := func(froms []string, to []string, at, outer Pos) {
		for _, from := range froms {
			for _, t := range to {
				e := LockEdge{From: from, To: t, At: at, Outer: outer}
				if !seen[e] {
					seen[e] = true
					edges = append(edges, e)
				}
			}
		}
	}
	for _, s := range f.Sections {
		f.eachAcquisition(s, func(mi *methodInfo, pc int, sync bool) {
			var to []string
			if sync {
				to = resolveLockName("recv:"+baseName(mi.m.Name), mi.m.Name, binds)
			} else {
				to = resolve(mi, pc)
			}
			add(lockOf[s.Enter], to, Pos{mi.m.Name, pc}, s.Enter)
		})
	}

	// Multi-name circularities: the SCC criterion under behavioral naming.
	f.Deadlocks = findCycles(edges)

	// Single-name circularities. acq[l] is the set of concurrent thread
	// instances that may acquire l — the thread-system fixpoint, spawn
	// pseudo-identities counting their multiplicity.
	reach := d.threadReach()
	acq := make(map[string]map[string]bool)
	for _, s := range f.Sections {
		for _, l := range lockOf[s.Enter] {
			for t := range reach[s.Enter.Method] {
				if acq[l] == nil {
					acq[l] = make(map[string]bool)
				}
				acq[l][t] = true
			}
		}
	}
	selfEdges := make(map[string][]LockEdge)
	var selfNames []string
	for _, e := range edges {
		if e.From != e.To || !multiInstance(e.From) || len(acq[e.From]) < 2 {
			continue
		}
		if selfEdges[e.From] == nil {
			selfNames = append(selfNames, e.From)
		}
		selfEdges[e.From] = append(selfEdges[e.From], e)
	}
	sort.Strings(selfNames)
	for _, l := range selfNames {
		f.Deadlocks = append(f.Deadlocks, Cycle{Locks: []string{l}, Edges: selfEdges[l]})
	}
}

// RenderDeadlocks formats the behavioral findings as deterministic text
// (the rvmlint -deadlocks section).
func (f *Facts) RenderDeadlocks() string {
	var b strings.Builder
	fmt.Fprintf(&b, "behavioral deadlocks: %d (lock-order cycles: %d)\n", len(f.Deadlocks), len(f.Cycles))
	for _, c := range f.Deadlocks {
		if len(c.Locks) == 1 {
			fmt.Fprintf(&b, "  deadlock: %s (multi-instance self-cycle)\n", c.Locks[0])
		} else {
			fmt.Fprintf(&b, "  deadlock: %s\n", strings.Join(c.Locks, " <-> "))
		}
		for _, e := range c.Edges {
			fmt.Fprintf(&b, "    %s acquired at %v while holding %s (entered at %v)\n",
				e.To, e.At, e.From, e.Outer)
		}
	}
	return b.String()
}
