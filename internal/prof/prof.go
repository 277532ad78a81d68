// Package prof implements a deterministic virtual-time profiler for the
// reproduction VM, in the style of Go's CPU/block/mutex profiles. Every
// tick a thread charges to the virtual clock is attributed to the thread's
// current (method, PC) site — stamped by the interpreter at each
// instruction — and bucketed into one of four profile dimensions:
//
//   - Work:  committed execution,
//   - Waste: execution later retracted by a rollback (reclassified from
//     Work when the runtime's SectionRollback hook fires, reconciling
//     exactly with core.Stats.WastedTicks),
//   - Block: virtual time spent parked on a monitor, attributed to both
//     the waiter's site and the contended monitor (like Go's mutex
//     profile),
//   - Sched: scheduler overhead — context-switch cost and discrete-event
//     idle jumps, charged to the clock by no thread.
//
// Work, Waste and Sched partition the virtual timeline exactly: their
// totals sum to the final clock value of a run that profiles every thread.
// Block is overlay accounting — on the uniprocessor the clock advances on
// behalf of whichever thread runs while the waiter is parked, so blocked
// time overlaps Work/Waste of other threads and can exceed wall time when
// several threads wait at once.
//
// The profiler is driven by hooks in internal/core and internal/sched
// behind the core.Config.Profiler knob; nil = zero cost, the same contract
// as Config.Observer and Config.Race. All shared state is mutex-guarded so
// a live HTTP endpoint can snapshot profiles mid-run.
package prof

import (
	"sort"
	"sync"

	"repro/internal/simtime"
)

// Dim is one of the four profile dimensions.
type Dim int

// Profile dimensions.
const (
	Work Dim = iota
	Waste
	Block
	Sched
	NumDims
)

var dimNames = [NumDims]string{"work", "waste", "block", "sched"}

func (d Dim) String() string {
	if d >= 0 && d < NumDims {
		return dimNames[d]
	}
	return "dim(?)"
}

// Dims lists every dimension, in declaration order.
func Dims() []Dim { return []Dim{Work, Waste, Block, Sched} }

// node is one interned call-tree node: a method activation context. The
// parent chain reconstructs the stack; callPC is the caller's pc at the
// call site (0 for roots).
type node struct {
	parent int32
	fn     int32
	callPC int32
}

// sampleKey keys one accumulation cell: the innermost call node, the
// stamped pc, and (Block dimension only) the interned contended-monitor
// pseudo-frame.
type sampleKey struct {
	node int32
	pc   int32
	aux  int32
}

// Profiler accumulates tick attributions for one VM instance. Safe for
// concurrent use: the VM threads mutate it under mu, and Snapshot may be
// called from any goroutine (e.g. the live HTTP endpoint) while the VM
// runs.
type Profiler struct {
	mu        sync.Mutex
	funcIDs   map[string]int32
	funcNames []string // funcNames[id-1]
	nodes     []node   // nodes[id-1]
	nodeIDs   map[node]int32
	counts    [NumDims]map[sampleKey]int64
	totals    [NumDims]int64

	// funcTier tags functions with the execution tier that compiled them
	// ("opt"), surfaced on attributed sites in Top.
	funcTier map[int32]string

	// sampler, when set, observes every Work tick charge with its leaf
	// frame — the per-tick feed the causal profiler intersects with the
	// critical path for exact (method, pc) attribution. clock supplies the
	// virtual time at the charge (the end of the charged interval); it is
	// wired by core.New. Both run on the VM goroutine.
	sampler func(thread string, end, d simtime.Ticks, fn string, pc int)
	clock   func() simtime.Ticks
}

// New creates an empty profiler.
func New() *Profiler {
	p := &Profiler{
		funcIDs:  make(map[string]int32),
		nodeIDs:  make(map[node]int32),
		funcTier: make(map[int32]string),
	}
	for d := range p.counts {
		p.counts[d] = make(map[sampleKey]int64)
	}
	return p
}

// internFunc interns a function (method, thread, or pseudo-frame) name.
// Caller holds mu.
func (p *Profiler) internFunc(name string) int32 {
	if id, ok := p.funcIDs[name]; ok {
		return id
	}
	p.funcNames = append(p.funcNames, name)
	id := int32(len(p.funcNames))
	p.funcIDs[name] = id
	return id
}

// internNode interns a call-tree node. Caller holds mu.
func (p *Profiler) internNode(n node) int32 {
	if id, ok := p.nodeIDs[n]; ok {
		return id
	}
	p.nodes = append(p.nodes, n)
	id := int32(len(p.nodes))
	p.nodeIDs[n] = id
	return id
}

// add accumulates d ticks into one cell. Caller holds mu.
func (p *Profiler) add(dim Dim, key sampleKey, d int64) {
	p.counts[dim][key] += d
	p.totals[dim] += d
}

// SchedTick attributes scheduler-level ticks — context-switch cost or a
// discrete-event idle jump — that no thread charged. The label becomes a
// synthetic root frame ("<context-switch>", "<idle>").
func (p *Profiler) SchedTick(label string, d simtime.Ticks) {
	if d <= 0 {
		return
	}
	p.mu.Lock()
	n := p.internNode(node{fn: p.internFunc("<" + label + ">")})
	p.add(Sched, sampleKey{node: n}, int64(d))
	p.mu.Unlock()
}

// SetFuncTier tags fn with the execution tier that compiled it; Top
// surfaces the tag on attributed sites.
func (p *Profiler) SetFuncTier(fn, tier string) {
	p.mu.Lock()
	p.funcTier[p.internFunc(fn)] = tier
	p.mu.Unlock()
}

// Total returns one dimension's accumulated ticks.
func (p *Profiler) Total(dim Dim) int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.totals[dim]
}

// ---------------------------------------------------------------------------
// Per-thread handle.

// journalEntry records one Work attribution made inside a synchronized
// section, so a later rollback can reclassify it as Waste.
type journalEntry struct {
	key   sampleKey
	ticks int64
}

// ThreadProf is one thread's attribution handle. The call stack, stamped
// pc, and journal are owned by the VM thread (the scheduler serializes all
// thread execution), so only the shared accumulation tables take the
// profiler lock.
type ThreadProf struct {
	p     *Profiler
	name  string
	stack []int32 // interned nodes; stack[0] is the thread root
	pc    int32   // current bytecode pc, stamped by the interpreter

	// journal records Work attributions since the outermost revocable
	// section entry; marks[i] is its length when core frame i was pushed.
	journal []journalEntry
	marks   []int
}

// Thread registers a thread root (named after the thread) and returns its
// attribution handle.
func (p *Profiler) Thread(name string) *ThreadProf {
	p.mu.Lock()
	root := p.internNode(node{fn: p.internFunc(name)})
	p.mu.Unlock()
	return &ThreadProf{p: p, name: name, stack: []int32{root}}
}

// SetClock wires the virtual-time source consulted by the tick sampler;
// core.New calls it when the profiler is attached to a runtime.
func (p *Profiler) SetClock(now func() simtime.Ticks) { p.clock = now }

// SetSampler installs the per-charge observer: fn is the leaf method name
// ("" for thread-root charges), end the virtual time at the end of the
// charged [end-d, end) interval. The sampler is called on the VM goroutine
// without the profiler lock held and must not call back into the profiler.
func (p *Profiler) SetSampler(s func(thread string, end, d simtime.Ticks, fn string, pc int)) {
	p.sampler = s
}

func (tp *ThreadProf) top() int32 { return tp.stack[len(tp.stack)-1] }

// SetPC stamps the current bytecode pc; subsequent ticks are attributed to
// (current method, pc).
func (tp *ThreadProf) SetPC(pc int) { tp.pc = int32(pc) }

// Depth returns the number of pushed method frames (the thread root does
// not count).
func (tp *ThreadProf) Depth() int { return len(tp.stack) - 1 }

// Push enters a method: a child node of the current top, recording the
// caller's pc as the call site.
func (tp *ThreadProf) Push(fn string) {
	p := tp.p
	p.mu.Lock()
	n := p.internNode(node{parent: tp.top(), fn: p.internFunc(fn), callPC: tp.pc})
	p.mu.Unlock()
	tp.stack = append(tp.stack, n)
	tp.pc = 0
}

// PopTo truncates the method stack to depth frames (as counted by Depth).
// Interpreters call it after any unwinding — return, exception, rollback —
// so multi-frame discards stay in sync.
func (tp *ThreadProf) PopTo(depth int) {
	if depth < 0 {
		depth = 0
	}
	if n := depth + 1; n < len(tp.stack) {
		tp.stack = tp.stack[:n]
	}
}

// Tick attributes d charged CPU ticks to the current site as Work,
// journaling the attribution when inside a synchronized section so a
// rollback can retract it.
func (tp *ThreadProf) Tick(d simtime.Ticks) {
	if d <= 0 {
		return
	}
	key := sampleKey{node: tp.top(), pc: tp.pc}
	p := tp.p
	var leaf string
	p.mu.Lock()
	p.add(Work, key, int64(d))
	if key.node != 0 && p.sampler != nil && len(tp.stack) > 1 {
		leaf = p.funcNames[p.nodes[key.node-1].fn-1]
	}
	p.mu.Unlock()
	if p.sampler != nil && p.clock != nil {
		p.sampler(tp.name, p.clock(), d, leaf, int(tp.pc))
	}
	if len(tp.marks) > 0 {
		tp.journal = append(tp.journal, journalEntry{key: key, ticks: int64(d)})
	}
}

// Site returns the leaf frame the next tick charge would attribute to: the
// current method name ("" at the thread root) and bytecode pc. The what-if
// engine keys Perturb.Scale lookups by it.
func (tp *ThreadProf) Site() (fn string, pc int) {
	if len(tp.stack) > 1 {
		p := tp.p
		p.mu.Lock()
		fn = p.funcNames[p.nodes[tp.top()-1].fn-1]
		p.mu.Unlock()
	}
	return fn, int(tp.pc)
}

// BlockTick attributes d ticks parked on monitor mon to the current site.
// The monitor becomes a pseudo-leaf frame ("monitor:NAME") so block
// profiles aggregate both by waiting site and by contended monitor.
// Blocked time is not CPU, so it is never journaled: a rollback's wasted
// ticks are the victim's own charges only.
func (tp *ThreadProf) BlockTick(d simtime.Ticks, mon string) {
	if d <= 0 {
		return
	}
	p := tp.p
	p.mu.Lock()
	key := sampleKey{node: tp.top(), pc: tp.pc, aux: p.internFunc("monitor:" + mon)}
	p.add(Block, key, int64(d))
	p.mu.Unlock()
}

// SectionEnter records a synchronized-section frame push, aligning the
// journal with the runtime's frame stack (mirrors race.Detector.SectionEnter).
func (tp *ThreadProf) SectionEnter() {
	tp.marks = append(tp.marks, len(tp.journal))
}

// SectionCommit records a normal section exit. When the outermost frame
// commits, the journaled attributions become permanent Work and the
// journal resets.
func (tp *ThreadProf) SectionCommit() {
	n := len(tp.marks)
	if n == 0 {
		return
	}
	tp.marks = tp.marks[:n-1]
	if n == 1 {
		tp.journal = tp.journal[:0]
	}
}

// SectionRollback reclassifies every attribution journaled since frame idx
// was pushed from Work to Waste — the profiler's view of the undo replay.
// The runtime calls it where it computes Stats.WastedTicks, and the charges
// journaled in between (instruction costs, barrier costs, log-entry costs,
// the undo replay itself) are exactly the CPU delta that computation
// measures, so the Waste dimension reconciles tick-for-tick.
func (tp *ThreadProf) SectionRollback(idx int) {
	if idx < 0 || idx >= len(tp.marks) {
		return
	}
	m := tp.marks[idx]
	p := tp.p
	p.mu.Lock()
	for _, e := range tp.journal[m:] {
		p.add(Work, e.key, -e.ticks)
		if p.counts[Work][e.key] == 0 {
			delete(p.counts[Work], e.key)
		}
		p.add(Waste, e.key, e.ticks)
	}
	p.mu.Unlock()
	tp.journal = tp.journal[:m]
	tp.marks = tp.marks[:idx]
}

// WaitTruncate commits the journal in place: Object.wait released the
// monitor (or marked the nest non-revocable), so no attribution made so
// far can be rolled back anymore (mirrors race.Detector.WaitTruncate).
func (tp *ThreadProf) WaitTruncate() {
	tp.journal = tp.journal[:0]
	for i := range tp.marks {
		tp.marks[i] = 0
	}
}

// ---------------------------------------------------------------------------
// Snapshots.

// Frame is one resolved stack frame of a sample. PC is the bytecode pc (0
// for thread roots and pseudo-frames).
type Frame struct {
	Func string
	PC   int
}

// Sample is one resolved accumulation cell: a stack (leaf first, thread
// root last) and its tick count.
type Sample struct {
	Stack []Frame
	Value int64
}

// Snapshot is an immutable copy of the profiler's state, safe to export
// while the VM keeps running.
type Snapshot struct {
	Dims   [NumDims][]Sample
	Totals [NumDims]int64

	// FuncTier maps function names to the execution tier that compiled
	// them (absent = interpreted only).
	FuncTier map[string]string
}

// Snapshot resolves every cell into stacks under the lock and returns a
// deterministic (value-descending, then stack-ordered) copy.
func (p *Profiler) Snapshot() *Snapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := &Snapshot{Totals: p.totals, FuncTier: make(map[string]string, len(p.funcTier))}
	for id, tier := range p.funcTier {
		s.FuncTier[p.funcNames[id-1]] = tier
	}
	for d := Dim(0); d < NumDims; d++ {
		samples := make([]Sample, 0, len(p.counts[d]))
		for key, v := range p.counts[d] {
			if v == 0 {
				continue
			}
			samples = append(samples, Sample{Stack: p.resolveStack(key), Value: v})
		}
		sort.Slice(samples, func(i, j int) bool {
			if samples[i].Value != samples[j].Value {
				return samples[i].Value > samples[j].Value
			}
			return stackLess(samples[i].Stack, samples[j].Stack)
		})
		s.Dims[d] = samples
	}
	return s
}

// resolveStack renders a sample key as frames, leaf first. Caller holds mu.
func (p *Profiler) resolveStack(key sampleKey) []Frame {
	var stack []Frame
	if key.aux != 0 {
		stack = append(stack, Frame{Func: p.funcNames[key.aux-1]})
	}
	pc := key.pc
	for id := key.node; id != 0; {
		n := p.nodes[id-1]
		stack = append(stack, Frame{Func: p.funcNames[n.fn-1], PC: int(pc)})
		pc = n.callPC
		id = n.parent
	}
	return stack
}

func stackLess(a, b []Frame) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i].Func != b[i].Func {
			return a[i].Func < b[i].Func
		}
		if a[i].PC != b[i].PC {
			return a[i].PC < b[i].PC
		}
	}
	return len(a) < len(b)
}

// TopSite is one leaf site in a Top ranking. Tier, when non-empty, names
// the execution tier that compiled the function: "opt" for a function
// compiled by TierOpt, empty for one that only ran on exec.
type TopSite struct {
	Func  string `json:"func"`
	PC    int    `json:"pc"`
	Ticks int64  `json:"ticks"`
	Tier  string `json:"tier,omitempty"`
}

// Top ranks one dimension's leaf sites by accumulated ticks and returns
// the first n (all when n <= 0). For Block the leaf is the contended
// monitor's pseudo-frame.
func (s *Snapshot) Top(dim Dim, n int) []TopSite {
	agg := make(map[Frame]int64)
	for _, smp := range s.Dims[dim] {
		if len(smp.Stack) == 0 {
			continue
		}
		agg[smp.Stack[0]] += smp.Value
	}
	sites := make([]TopSite, 0, len(agg))
	for f, v := range agg {
		sites = append(sites, TopSite{Func: f.Func, PC: f.PC, Ticks: v, Tier: s.FuncTier[f.Func]})
	}
	sort.Slice(sites, func(i, j int) bool {
		if sites[i].Ticks != sites[j].Ticks {
			return sites[i].Ticks > sites[j].Ticks
		}
		if sites[i].Func != sites[j].Func {
			return sites[i].Func < sites[j].Func
		}
		return sites[i].PC < sites[j].PC
	})
	if n > 0 && len(sites) > n {
		sites = sites[:n]
	}
	return sites
}
