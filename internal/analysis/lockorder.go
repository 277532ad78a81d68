package analysis

import (
	"sort"

	"repro/internal/bytecode"
)

// Lock-order graph and deadlock cycle detection.
//
// Every section contributes one edge per monitor acquisition reachable while
// its own monitor is held: nested MONITORENTERs in the section body, enters
// anywhere in transitively invocable methods, and synchronized callees. A
// strongly connected component of two or more abstract locks means two
// threads can acquire the member locks in conflicting orders — a potential
// deadlock reported before any thread ever blocks. Self-edges (reentrant
// acquisition of one abstract lock) are not deadlocks and are dropped.

// buildLockOrder collects the edges and runs Tarjan's SCC over the lock ids.
func (f *Facts) buildLockOrder() {
	var edges []LockEdge
	seen := make(map[LockEdge]bool)
	add := func(e LockEdge) {
		if e.From == e.To || seen[e] {
			return
		}
		seen[e] = true
		edges = append(edges, e)
	}

	for _, s := range f.Sections {
		f.eachAcquisition(s, func(mi *methodInfo, pc int, sync bool) {
			var to string
			if sync {
				to = "recv:" + baseName(mi.m.Name)
			} else {
				to = f.lockID(mi, pc)
			}
			add(LockEdge{From: s.Lock, To: to, At: Pos{mi.m.Name, pc}, Outer: s.Enter})
		})
	}

	f.Cycles = findCycles(edges)
}

// eachAcquisition calls visit for every monitor acquisition that may run
// while s's monitor is held: each nested MONITORENTER among the section's
// pcs, every reachable MONITORENTER in its callee closure, and the entry
// of each synchronized callee (pc 0, sync set).
func (f *Facts) eachAcquisition(s *Section, visit func(mi *methodInfo, pc int, sync bool)) {
	mi := f.methods[s.Enter.Method]
	for _, pc := range s.PCs {
		if mi.m.Code[pc].Op == bytecode.MONITORENTER && pc != s.Enter.PC {
			visit(mi, pc, false)
		}
	}
	for _, callee := range s.Callees {
		ci := f.methods[callee]
		if ci == nil {
			continue
		}
		if ci.m.Synchronized {
			visit(ci, 0, true)
		}
		for pc, in := range ci.m.Code {
			if in.Op == bytecode.MONITORENTER && ci.depth[pc] >= 0 {
				visit(ci, pc, false)
			}
		}
	}
}

// findCycles runs Tarjan's strongly-connected-components algorithm over the
// edge set and returns every component with at least two locks, each with
// its witnessing edges, in deterministic order.
func findCycles(edges []LockEdge) []Cycle {
	adj := make(map[string][]string)
	nodes := make([]string, 0)
	addNode := func(id string) {
		if _, ok := adj[id]; !ok {
			adj[id] = nil
			nodes = append(nodes, id)
		}
	}
	for _, e := range edges {
		addNode(e.From)
		addNode(e.To)
		adj[e.From] = append(adj[e.From], e.To)
	}
	sort.Strings(nodes)

	index := make(map[string]int, len(nodes))
	low := make(map[string]int, len(nodes))
	onStack := make(map[string]bool, len(nodes))
	var stack []string
	next := 0
	var comps [][]string

	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, ok := index[w]; !ok {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			if len(comp) >= 2 {
				comps = append(comps, comp)
			}
		}
	}
	for _, v := range nodes {
		if _, ok := index[v]; !ok {
			strongconnect(v)
		}
	}

	var cycles []Cycle
	for _, comp := range comps {
		sort.Strings(comp)
		member := make(map[string]bool, len(comp))
		for _, id := range comp {
			member[id] = true
		}
		var witness []LockEdge
		for _, e := range edges {
			if member[e.From] && member[e.To] {
				witness = append(witness, e)
			}
		}
		cycles = append(cycles, Cycle{Locks: comp, Edges: witness})
	}
	sort.Slice(cycles, func(i, j int) bool { return cycles[i].Locks[0] < cycles[j].Locks[0] })
	return cycles
}
