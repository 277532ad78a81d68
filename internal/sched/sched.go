// Package sched implements the user-level thread system the reproduction
// runs on: a deterministic, uniprocessor, pseudo-preemptive scheduler in the
// style of the Jikes RVM virtual processor the paper targets.
//
// Every simulated thread is backed by a goroutine, but exactly one thread
// runs at a time; control is handed off over unbuffered channels. Threads
// give up the processor only at yield points (§3.1: "thread context-switches
// can happen only at pre-specified yield points inserted by the compiler"),
// which the runtime places at every shared-data operation, loop back-edge
// and method entry. Time is virtual: threads charge ticks to a shared
// simtime.Clock as they execute, and a quantum expires after a configurable
// number of ticks.
//
// The scheduler knows nothing about monitors or revocation; those live in
// internal/monitor and internal/core. It provides exactly the primitives the
// paper's runtime needs: spawn, yield points, block/unblock with a wake
// reason (so a blocked thread can be interrupted for revocation), sleep,
// preemption requests, and priority changes (for the priority-inheritance
// baseline).
package sched

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/simtime"
	"repro/internal/trace"
)

// Priority is a thread priority. Higher values are more urgent. The paper's
// benchmark uses two levels; the implementation supports the full Java range
// (1..10) so the baselines (inheritance, ceiling) are expressible.
type Priority int

// Java-style priority levels.
const (
	MinPriority  Priority = 1
	LowPriority  Priority = 2
	NormPriority Priority = 5
	HighPriority Priority = 8
	MaxPriority  Priority = 10
)

// numPriorities bounds the priority bucket array (index 0 unused).
const numPriorities = int(MaxPriority) + 1

// State describes a thread's lifecycle position.
type State int

// Thread states.
const (
	StateNew State = iota
	StateRunnable
	StateRunning
	StateBlocked
	StateSleeping
	StateDone
)

var stateNames = [...]string{"new", "runnable", "running", "blocked", "sleeping", "done"}

func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// WakeKind tells an unblocked thread why it was woken.
type WakeKind int

const (
	// WakeNone is returned while the thread is still blocked (internal).
	WakeNone WakeKind = iota
	// WakeGranted means the resource the thread blocked for was handed to
	// it (e.g. it now owns the monitor).
	WakeGranted
	// WakeRetry means the thread should re-attempt its blocking operation
	// (e.g. notify-style wakeup with no ownership transfer).
	WakeRetry
	// WakeInterrupt means the runtime interrupted the blocked thread, e.g.
	// to revoke one of its synchronized sections while it waits on another
	// monitor (deadlock resolution).
	WakeInterrupt
)

func (k WakeKind) String() string {
	switch k {
	case WakeNone:
		return "none"
	case WakeGranted:
		return "granted"
	case WakeRetry:
		return "retry"
	case WakeInterrupt:
		return "interrupt"
	default:
		return fmt.Sprintf("wake(%d)", int(k))
	}
}

// Policy selects the dispatch discipline.
type Policy int

const (
	// RoundRobin ignores priorities when dispatching, like the unmodified
	// Jikes RVM scheduler the paper builds on (§4: "threads are scheduled
	// in a round-robin fashion"). Priorities still matter at monitors,
	// which use prioritized entry queues.
	RoundRobin Policy = iota
	// PriorityRR always dispatches from the highest non-empty priority
	// level, round-robin within a level. Used by ablations.
	PriorityRR
)

func (p Policy) String() string {
	switch p {
	case RoundRobin:
		return "round-robin"
	case PriorityRR:
		return "priority-rr"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Config parameterizes a Scheduler.
type Config struct {
	// Quantum is the tick budget a thread may consume before a yield point
	// forces a context switch. Zero selects DefaultQuantum.
	Quantum simtime.Ticks
	// SwitchCost is charged to the clock at every context switch.
	SwitchCost simtime.Ticks
	// Policy selects the dispatch discipline (default RoundRobin, as in
	// Jikes RVM).
	Policy Policy
	// Seed initializes the deterministic RNG exposed via Rng.
	Seed int64
	// Tracer receives scheduler events; nil discards them.
	Tracer trace.Sink
}

// DefaultQuantum is the quantum used when Config.Quantum is zero. The paper
// reports the benchmark's random pause as "on average equal to a single
// thread quantum in Jikes RVM"; all workloads express pauses relative to
// this value.
const DefaultQuantum simtime.Ticks = 1000

// ErrDeadlock is returned by Run when live threads remain but none is
// runnable or sleeping: every thread is blocked and nothing can unblock
// them. The runtime layered above resolves *monitor* deadlocks itself; this
// error surfaces only if resolution is disabled or impossible.
var ErrDeadlock = errors.New("sched: all live threads are blocked")

// resumeMsg is sent scheduler→thread to hand over the processor.
type resumeMsg struct {
	kill bool
}

// killSignal is panicked inside a thread goroutine to terminate it during
// Drain. It never escapes the package.
type killSignal struct{}

// Thread is a simulated thread of control.
type Thread struct {
	id   int
	name string
	prio Priority
	base Priority // priority before any inheritance boost

	state  State
	sch    *Scheduler
	body   func(*Thread)
	resume chan resumeMsg

	// Accounting. cpu is accumulated when the thread comes back to the
	// scheduler: while a thread runs, every clock advance is its own
	// charge, so its CPU is the clock's movement since runStart.
	cpu       simtime.Ticks // ticks charged in completed dispatches
	runStart  simtime.Ticks // clock at the current dispatch's first instruction
	switches  int64
	startedAt simtime.Ticks
	endedAt   simtime.Ticks

	preemptReq bool
	// hold keeps the clock's fast-charge bound closed while the thread
	// runs, so every charge takes its caller's full path (see Hold).
	hold        bool
	wakeKind    WakeKind
	blockReason string
	inQueue     bool

	// Data carries the runtime layer's per-thread payload (core.Task).
	Data any

	panicVal any
}

// ID returns the thread's scheduler-unique id.
func (t *Thread) ID() int { return t.id }

// Name returns the thread's display name.
func (t *Thread) Name() string { return t.name }

// Priority returns the thread's current (possibly boosted) priority.
func (t *Thread) Priority() Priority { return t.prio }

// BasePriority returns the priority the thread was spawned with, ignoring
// any inheritance boost.
func (t *Thread) BasePriority() Priority { return t.base }

// State returns the thread's lifecycle state.
func (t *Thread) State() State { return t.state }

// CPU returns the total ticks this thread has charged to the clock.
func (t *Thread) CPU() simtime.Ticks {
	if t.sch.current == t {
		return t.cpu + t.sch.clock.Now() - t.runStart
	}
	return t.cpu
}

// Switches returns how many times the thread has been dispatched.
func (t *Thread) Switches() int64 { return t.switches }

// StartedAt returns the virtual time of the thread's first dispatch.
func (t *Thread) StartedAt() simtime.Ticks { return t.startedAt }

// EndedAt returns the virtual time at which the thread finished.
func (t *Thread) EndedAt() simtime.Ticks { return t.endedAt }

// BlockReason describes what a blocked thread is waiting for ("" otherwise).
func (t *Thread) BlockReason() string { return t.blockReason }

// Scheduler multiplexes threads over one virtual processor.
type Scheduler struct {
	cfg     Config
	clock   *simtime.Clock
	tracer  trace.Sink
	rng     *rand.Rand
	back    chan *Thread
	current *Thread

	threads []*Thread // all spawned threads, in spawn order
	live    int       // threads not yet Done

	fifo    deque                // RoundRobin run queue
	buckets [numPriorities]deque // PriorityRR run queues

	// nextPreempt is the next global timeslice boundary. Preemption is
	// timer-driven, as in Jikes RVM: a periodic clock tick requests a
	// context switch, honoured at the running thread's next yield point.
	// A thread dispatched mid-slice gets only the remainder, so thread
	// activity desynchronizes from slice boundaries exactly as it does
	// under a wall-clock interval timer.
	nextPreempt simtime.Ticks

	// expedited is a one-shot dispatch override set by Expedite: the
	// thread to run next regardless of queue order or priority.
	expedited *Thread

	switchCount int64
	running     bool

	// PreDispatch, when non-nil, runs in scheduler context immediately
	// before a thread is dispatched. The runtime uses it for the periodic
	// inversion detector.
	PreDispatch func(next *Thread)

	// OnSwitchCost and OnIdle, when non-nil, observe the two clock
	// advances the scheduler itself makes: the per-dispatch SwitchCost
	// charge, and the discrete-event jump to the next timer when no
	// thread is runnable. The profiler uses them to account scheduler
	// overhead ticks that no thread charged.
	OnSwitchCost func(d simtime.Ticks)
	OnIdle       func(d simtime.Ticks)
}

// New creates a scheduler over a fresh clock.
func New(cfg Config) *Scheduler {
	if cfg.Quantum <= 0 {
		cfg.Quantum = DefaultQuantum
	}
	return &Scheduler{
		cfg:    cfg,
		clock:  simtime.NewClock(),
		tracer: trace.Join(cfg.Tracer),
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		back:   make(chan *Thread),
	}
}

// Clock returns the scheduler's virtual clock.
func (s *Scheduler) Clock() *simtime.Clock { return s.clock }

// Now returns the current virtual time.
func (s *Scheduler) Now() simtime.Ticks { return s.clock.Now() }

// Emit stamps e with the current virtual time and delivers it to the
// tracer: the one emit path of sched and core. With no subscriber the
// tracer is nil and Emit returns at once.
func (s *Scheduler) Emit(e trace.Event) {
	if s.tracer != nil {
		e.At = s.clock.Now()
		s.tracer.Emit(e)
	}
}

// Tracing reports whether any subscriber receives events. Callers guard
// payloads that need formatting with it.
func (s *Scheduler) Tracing() bool { return s.tracer != nil }

// Rng returns the deterministic random source (seeded from Config.Seed).
func (s *Scheduler) Rng() *rand.Rand { return s.rng }

// Quantum returns the configured quantum.
func (s *Scheduler) Quantum() simtime.Ticks { return s.cfg.Quantum }

// Policy returns the dispatch policy.
func (s *Scheduler) Policy() Policy { return s.cfg.Policy }

// Current returns the running thread, or nil when the scheduler itself is
// executing.
func (s *Scheduler) Current() *Thread { return s.current }

// ContextSwitches returns the number of dispatches performed.
func (s *Scheduler) ContextSwitches() int64 { return s.switchCount }

// Threads returns all spawned threads in spawn order. The slice is shared;
// callers must not mutate it.
func (s *Scheduler) Threads() []*Thread { return s.threads }

// Spawn creates a new thread. It may be called before Run or from a running
// thread. The body runs on its own goroutine but only when dispatched.
func (s *Scheduler) Spawn(name string, prio Priority, body func(*Thread)) *Thread {
	if prio < MinPriority || prio > MaxPriority {
		panic(fmt.Sprintf("sched: priority %d out of range [%d,%d]", prio, MinPriority, MaxPriority))
	}
	t := &Thread{
		id:     len(s.threads),
		name:   name,
		prio:   prio,
		base:   prio,
		state:  StateNew,
		sch:    s,
		body:   body,
		resume: make(chan resumeMsg),
	}
	s.threads = append(s.threads, t)
	s.live++
	go t.top()
	s.enqueue(t)
	// Other names the spawning thread (empty for pre-Run root spawns): the
	// happens-before edge the causal DAG (internal/causal) needs to anchor
	// a dynamically spawned thread's start to its parent's timeline.
	var spawner string
	if s.current != nil {
		spawner = s.current.name
	}
	s.Emit(trace.Event{Kind: trace.ThreadStart, Thread: name, Other: spawner, N: int64(prio)})
	return t
}

// top is the goroutine wrapper around the thread body.
func (t *Thread) top() {
	msg := <-t.resume
	if msg.kill {
		return
	}
	defer func() {
		if r := recover(); r != nil {
			if _, isKill := r.(killSignal); isKill {
				return // Drain: exit silently, scheduler is not listening.
			}
			t.panicVal = r
		}
		t.state = StateDone
		t.endedAt = t.sch.clock.Now()
		t.sch.Emit(trace.Event{Kind: trace.ThreadEnd, Thread: t.name})
		t.sch.back <- t
	}()
	t.body(t)
}

// enqueue makes t runnable and places it on the run queue.
func (s *Scheduler) enqueue(t *Thread) {
	if t.inQueue {
		panic(fmt.Sprintf("sched: thread %q enqueued twice", t.name))
	}
	t.state = StateRunnable
	t.inQueue = true
	switch s.cfg.Policy {
	case RoundRobin:
		s.fifo.pushBack(t)
	case PriorityRR:
		s.buckets[t.prio].pushBack(t)
	}
}

// dequeue removes t from the run queue (used by SetPriority).
func (s *Scheduler) dequeue(t *Thread) {
	if !t.inQueue {
		return
	}
	switch s.cfg.Policy {
	case RoundRobin:
		s.fifo.remove(t)
	case PriorityRR:
		s.buckets[t.prio].remove(t)
	}
	t.inQueue = false
}

// pickNext pops the next runnable thread, or nil.
func (s *Scheduler) pickNext() *Thread {
	if t := s.expedited; t != nil {
		s.expedited = nil
		if t.inQueue {
			s.dequeue(t)
			return t
		}
	}
	switch s.cfg.Policy {
	case RoundRobin:
		if t := s.fifo.popFront(); t != nil {
			t.inQueue = false
			return t
		}
	case PriorityRR:
		for p := numPriorities - 1; p >= int(MinPriority); p-- {
			if t := s.buckets[p].popFront(); t != nil {
				t.inQueue = false
				return t
			}
		}
	}
	return nil
}

// Run dispatches threads until all are done (nil), or no progress is
// possible (ErrDeadlock), or some thread body panicked (the panic value is
// wrapped in the returned error).
func (s *Scheduler) Run() error {
	if s.running {
		panic("sched: Run reentered")
	}
	s.running = true
	defer func() { s.running = false }()

	for s.live > 0 {
		s.fireExpired()
		t := s.pickNext()
		if t == nil {
			// Nobody runnable: jump to the next timer if one exists.
			before := s.clock.Now()
			if s.clock.AdvanceToNext() {
				s.Emit(trace.Event{Kind: trace.SchedIdle, N: int64(s.clock.Now() - before)})
				if s.OnIdle != nil {
					s.OnIdle(s.clock.Now() - before)
				}
				continue
			}
			return fmt.Errorf("%w: %s", ErrDeadlock, s.describeBlocked())
		}
		if s.PreDispatch != nil {
			s.PreDispatch(t)
		}
		s.dispatch(t)
		if t.state == StateDone {
			s.live--
			if t.panicVal != nil {
				return fmt.Errorf("sched: thread %q panicked: %v", t.name, t.panicVal)
			}
		}
	}
	return nil
}

// dispatch hands the processor to t and waits for it to come back.
func (s *Scheduler) dispatch(t *Thread) {
	s.switchCount++
	t.switches++
	if t.switches == 1 {
		t.startedAt = s.clock.Now()
	}
	if s.cfg.SwitchCost > 0 {
		s.clock.Advance(s.cfg.SwitchCost)
		if s.OnSwitchCost != nil {
			s.OnSwitchCost(s.cfg.SwitchCost)
		}
	}
	if s.clock.Now() >= s.nextPreempt {
		s.nextPreempt = s.clock.Now() + s.cfg.Quantum
	}
	t.state = StateRunning
	s.current = t
	t.runStart = s.clock.Now()
	s.openBound(t)
	// N carries the dispatch cost just paid so stream consumers (the causal
	// DAG) can recover the previous thread's exact yield moment without
	// knowing the scheduler configuration.
	s.Emit(trace.Event{Kind: trace.ContextSwitch, Thread: t.name, N: int64(s.cfg.SwitchCost)})
	t.resume <- resumeMsg{}
	<-s.back
	s.current = nil
	s.clock.SetLimit(0)
	t.cpu += s.clock.Now() - t.runStart
	// A thread that yielded while runnable goes to the back of the queue.
	if t.state == StateRunnable && !t.inQueue {
		t.state = StateNew // enqueue() asserts/flips to Runnable
		s.enqueue(t)
	}
}

// fireExpired wakes every sleeping thread whose deadline has passed.
func (s *Scheduler) fireExpired() {
	for {
		payload, ok := s.clock.Expired()
		if !ok {
			return
		}
		switch v := payload.(type) {
		case *Thread:
			if v.state == StateSleeping {
				s.enqueue(v)
			}
		case func():
			v()
		default:
			panic(fmt.Sprintf("sched: unknown timer payload %T", payload))
		}
	}
}

// describeBlocked renders the blocked threads for ErrDeadlock.
func (s *Scheduler) describeBlocked() string {
	var parts []string
	for _, t := range s.threads {
		if t.state == StateBlocked {
			parts = append(parts, fmt.Sprintf("%s(on %s)", t.name, t.blockReason))
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, ", ")
}

// Drain force-terminates every live thread goroutine. Call it after Run
// returns an error to avoid leaking goroutines. The scheduler is unusable
// afterwards.
func (s *Scheduler) Drain() {
	for _, t := range s.threads {
		switch t.state {
		case StateDone:
			continue
		case StateNew:
			// Never dispatched: goroutine is parked on first resume.
			t.resume <- resumeMsg{kill: true}
		case StateRunnable, StateBlocked, StateSleeping:
			// Parked inside yieldToScheduler: resume with kill, goroutine
			// panics killSignal and exits without reporting back.
			t.resume <- resumeMsg{kill: true}
		case StateRunning:
			panic("sched: Drain called while a thread is running")
		}
		t.state = StateDone
	}
	s.live = 0
}

// ---------------------------------------------------------------------------
// Thread-side primitives. All of the following must be called from the
// thread's own body (i.e. while it is the running thread).

// assertRunning guards thread-side entry points.
func (t *Thread) assertRunning(op string) {
	if t.sch.current != t {
		panic(fmt.Sprintf("sched: %s called on thread %q which is not running", op, t.name))
	}
}

// Advance charges d ticks of work to the clock without yielding.
func (t *Thread) Advance(d simtime.Ticks) {
	t.assertRunning("Advance")
	t.Charge(d)
}

// openBound sets the clock's fast-charge bound for the running thread t:
// the timeslice boundary, or closed while t has a preemption requested or
// is held. It is the one place the bound opens.
func (s *Scheduler) openBound(t *Thread) {
	if t.preemptReq || t.hold {
		s.clock.SetLimit(0)
	} else {
		s.clock.SetLimit(s.nextPreempt)
	}
}

// Headroom returns how many ticks the thread may charge before its next
// yield point could switch: the clock's fast-charge bound (nextPreempt −
// now) while it is the running thread with no preemption requested and
// no hold, and 0 otherwise (including once the timeslice has expired). A
// charge of d < Headroom() followed by any number of yield points with no
// clock advance between them never switches, so callers may skip those
// yield points.
func (t *Thread) Headroom() simtime.Ticks {
	if t.sch.current != t {
		return 0
	}
	return t.sch.clock.Headroom()
}

// Charge adds d ticks of work to the clock without a yield point or a
// running-thread check. Callers guarantee 0 <= d < Headroom(), which
// implies both; the thread's CPU follows from the clock.
func (t *Thread) Charge(d simtime.Ticks) { t.sch.clock.Advance(d) }

// Hold keeps every charge of the thread off the clock's fast path while
// on is true: its bound stays closed whenever the thread runs. The
// runtime holds a thread while a revocation is pending for it or a
// profiler needs every tick's site.
func (t *Thread) Hold(on bool) {
	t.hold = on
	if t.sch.current == t {
		t.sch.openBound(t)
	}
}

// NeedsYield reports whether the next YieldPoint would context-switch:
// the global timeslice timer has fired, or a preemption was requested.
func (t *Thread) NeedsYield() bool {
	return t.sch.clock.Now() >= t.sch.nextPreempt || t.preemptReq
}

// YieldPoint gives up the processor if the quantum has expired or a
// preemption was requested; otherwise it returns immediately. This is the
// analog of the compiler-inserted yield points in Jikes RVM.
func (t *Thread) YieldPoint() {
	t.assertRunning("YieldPoint")
	if t.NeedsYield() {
		t.preemptReq = false
		t.yieldToScheduler(StateRunnable, "")
	}
}

// Yield unconditionally gives up the processor, going to the back of the
// run queue.
func (t *Thread) Yield() {
	t.assertRunning("Yield")
	t.preemptReq = false
	t.yieldToScheduler(StateRunnable, "")
}

// Block parks the thread until some other thread calls Unblock, returning
// the wake reason. The reason string names the awaited resource and shows
// up in deadlock reports.
func (t *Thread) Block(reason string) WakeKind {
	t.assertRunning("Block")
	t.wakeKind = WakeNone
	t.yieldToScheduler(StateBlocked, reason)
	k := t.wakeKind
	t.wakeKind = WakeNone
	return k
}

// Sleep parks the thread for d ticks of virtual time.
func (t *Thread) Sleep(d simtime.Ticks) {
	t.assertRunning("Sleep")
	if d <= 0 {
		t.Yield()
		return
	}
	t.sch.Emit(trace.Event{Kind: trace.Sleep, Thread: t.name, N: int64(d)})
	t.sch.clock.ScheduleAfter(d, t)
	t.yieldToScheduler(StateSleeping, "sleep")
}

// Preempt requests that t yields at its next yield point. Any thread (or
// the scheduler) may call it. It closes the clock's fast-charge bound
// when t is running, so the next charge reaches that yield point.
func (t *Thread) Preempt() {
	t.preemptReq = true
	if t.sch.current == t {
		t.sch.clock.SetLimit(0)
	}
}

// Unblock makes a blocked thread runnable with the given wake reason. It
// must be called from scheduler context or from the running thread.
func (s *Scheduler) Unblock(t *Thread, kind WakeKind) {
	if t.state != StateBlocked {
		panic(fmt.Sprintf("sched: Unblock(%q) in state %v", t.name, t.state))
	}
	t.wakeKind = kind
	t.blockReason = ""
	s.enqueue(t)
}

// WakeSleeper prematurely wakes a sleeping thread (its timer fires as a
// no-op later). Used by deadlock resolution when the victim is asleep.
func (s *Scheduler) WakeSleeper(t *Thread, kind WakeKind) {
	if t.state != StateSleeping {
		panic(fmt.Sprintf("sched: WakeSleeper(%q) in state %v", t.name, t.state))
	}
	t.wakeKind = kind
	s.enqueue(t)
}

// Expedite marks a runnable thread to be dispatched next, overriding queue
// order and — crucially — dispatch priority. The revocation runtime uses
// it to implement the paper's "the scheduler initiates a context-switch
// and triggers rollback of the low priority thread at the next yield
// point": the victim runs promptly even when higher-priority CPU-bound
// threads exist (otherwise the rollback itself would suffer the very
// priority inversion it is meant to cure). No-op for threads that are not
// queued by the time the next dispatch happens; a later Expedite replaces
// an earlier one.
func (s *Scheduler) Expedite(t *Thread) {
	if !t.inQueue {
		return
	}
	s.expedited = t
}

// SetPriority changes a thread's effective priority (priority inheritance,
// ceiling protocols). The base priority is unchanged; use RestorePriority
// to undo a boost.
func (s *Scheduler) SetPriority(t *Thread, p Priority) {
	if p < MinPriority || p > MaxPriority {
		panic(fmt.Sprintf("sched: priority %d out of range", p))
	}
	if p == t.prio {
		return
	}
	inQ := t.inQueue
	if inQ {
		s.dequeue(t)
	}
	t.prio = p
	if inQ {
		t.state = StateNew
		s.enqueue(t)
	}
}

// RestorePriority resets a thread to its base (spawn-time) priority.
func (s *Scheduler) RestorePriority(t *Thread) { s.SetPriority(t, t.base) }

// yieldToScheduler transfers control to the scheduler loop and parks until
// redispatched.
func (t *Thread) yieldToScheduler(st State, reason string) {
	t.state = st
	t.blockReason = reason
	t.sch.back <- t
	msg := <-t.resume
	if msg.kill {
		panic(killSignal{})
	}
}

// ---------------------------------------------------------------------------
// deque is an intrusively indexed FIFO of threads with O(1) push/pop and
// O(n) removal (removal is rare: only priority changes).

type deque struct {
	items []*Thread
}

func (d *deque) pushBack(t *Thread) { d.items = append(d.items, t) }

func (d *deque) popFront() *Thread {
	if len(d.items) == 0 {
		return nil
	}
	t := d.items[0]
	copy(d.items, d.items[1:])
	d.items[len(d.items)-1] = nil
	d.items = d.items[:len(d.items)-1]
	return t
}

func (d *deque) remove(t *Thread) {
	for i, x := range d.items {
		if x == t {
			copy(d.items[i:], d.items[i+1:])
			d.items[len(d.items)-1] = nil
			d.items = d.items[:len(d.items)-1]
			return
		}
	}
}

func (d *deque) len() int { return len(d.items) }

func (d *deque) moveToFront(t *Thread) {
	for i, x := range d.items {
		if x == t {
			copy(d.items[1:i+1], d.items[:i])
			d.items[0] = t
			return
		}
	}
}
