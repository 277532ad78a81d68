// Package core implements the paper's primary contribution: revocable
// synchronized sections with preemption-based avoidance of priority
// inversion.
//
// A Runtime hosts simulated threads (Tasks) that execute synchronized
// sections over a simulated heap. In Revocation mode (the paper's "modified
// VM"), every store inside a synchronized section passes through a write
// barrier that records the old value in a per-thread sequential undo log
// (§3.1.2). When a thread tries to acquire a monitor whose deposited owner
// priority is lower than its own, the runtime requests revocation of the
// owner's section: at the owner's next yield point the runtime replays its
// undo log in reverse, releases the monitors acquired by the doomed span
// (handing the contended monitor directly to the high-priority waiter), and
// transfers control of the owner back to the start of the section for
// re-execution (§1.1, Figure 1). In Unmodified mode (the paper's baseline
// VM) acquisition simply blocks, with the same prioritized monitor queues.
//
// JMM-consistency (§2.2) is preserved by marking monitors non-revocable
// when rollback could expose "out of thin air" values: cross-thread reads
// of speculatively written locations (including volatiles), native-method
// calls, and wait performed in a nested monitor. The same machinery detects
// and breaks monitor deadlocks.
package core

import (
	"errors"
	"fmt"

	"repro/internal/heap"
	"repro/internal/jmm"
	"repro/internal/monitor"
	"repro/internal/prof"
	"repro/internal/race"
	"repro/internal/sched"
	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/undo"
)

// Mode selects which virtual machine the runtime models.
type Mode int

const (
	// Unmodified is the paper's reference VM: no write barriers, no
	// logging, no revocation. A high-priority thread arriving at a held
	// monitor waits for the owner to exit the section.
	Unmodified Mode = iota
	// Revocation is the paper's modified VM: compiled code logs updates
	// inside synchronized sections and the runtime revokes sections held
	// by lower-priority threads when higher-priority threads need them.
	Revocation
)

func (m Mode) String() string {
	switch m {
	case Unmodified:
		return "unmodified"
	case Revocation:
		return "revocation"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// DetectMode selects when priority inversion is detected (§1.1: "either at
// lock acquisition, or periodically in the background").
type DetectMode int

const (
	// DetectOnAcquire checks at every contended acquisition (the paper's
	// evaluated configuration, §4).
	DetectOnAcquire DetectMode = iota
	// DetectPeriodic scans all monitors every Config.DetectPeriod ticks.
	DetectPeriodic
	// DetectBoth combines the two.
	DetectBoth
)

func (d DetectMode) String() string {
	switch d {
	case DetectOnAcquire:
		return "on-acquire"
	case DetectPeriodic:
		return "periodic"
	case DetectBoth:
		return "both"
	default:
		return fmt.Sprintf("detect(%d)", int(d))
	}
}

// Config parameterizes a Runtime.
type Config struct {
	// Sched configures the underlying scheduler (quantum, policy, seed).
	Sched sched.Config
	// Mode selects Unmodified or Revocation behaviour.
	Mode Mode
	// Detect selects the inversion-detection strategy (Revocation mode).
	Detect DetectMode
	// DetectPeriod is the background scan period for DetectPeriodic /
	// DetectBoth; zero selects one quantum.
	DetectPeriod simtime.Ticks

	// CostRead/CostWrite are the tick charges for one shared-data read or
	// write; both default to 1, making section execution time proportional
	// to the number of shared-data operations (§4.1).
	CostRead  simtime.Ticks
	CostWrite simtime.Ticks
	// CostLogEntry is the extra charge for the write-barrier slow path
	// (logging one update). Defaults to 1.
	CostLogEntry simtime.Ticks
	// CostUndoEntry is the charge for restoring one logged location during
	// rollback. Defaults to 1.
	CostUndoEntry simtime.Ticks

	// NoCosts disables all tick charging by the barrier fast paths (used
	// by wall-clock micro-benchmarks of the mechanism itself).
	NoCosts bool

	// TrackDependencies enables the §2.2 read-barrier machinery that
	// marks monitors non-revocable on cross-thread reads of speculative
	// locations. The paper's implementation describes this design but its
	// benchmark never triggers it; disable to measure the difference.
	TrackDependencies bool

	// DeadlockDetection enables waits-for cycle detection at blocking
	// acquisitions, resolved by revocation (Revocation mode only).
	DeadlockDetection bool
	// DeadlockBackoff is the base backoff slept after a deadlock-triggered
	// rollback before re-execution (multiplied by the retry count) — the
	// guard against the revocation livelock the paper warns about (§1.1).
	// Zero selects one quantum.
	DeadlockBackoff simtime.Ticks

	// PriorityInheritance enables the classic inheritance protocol: a
	// blocking thread donates its priority to the monitor owner
	// (transitively). Used by the baseline package and as a fallback for
	// non-revocable sections when InheritOnDenied is set.
	PriorityInheritance bool
	// InheritOnDenied boosts the owner when a revocation request is denied
	// because the section is non-revocable.
	InheritOnDenied bool
	// PriorityCeiling enables ceiling emulation: acquiring a monitor with
	// a configured Ceiling raises the owner to that priority.
	PriorityCeiling bool

	// Race, when non-nil, attaches the dynamic data-race sanitizer: every
	// barriered access is checked against a vector-clock happens-before
	// relation, with access history retracted on rollback so a revoked
	// section can never ground a race report. A nil Race adds no cost: all
	// hooks sit behind a nil check.
	Race *race.Detector

	// Observer, when non-nil, receives every runtime event alongside
	// Tracer (internal/obs.Observer reconstructs causal spans and latency
	// histograms from the stream). A nil Observer adds no multiplexing
	// cost: the tracer is used directly.
	Observer trace.Sink

	// Profiler, when non-nil, attaches the virtual-time profiler
	// (internal/prof): every tick a thread charges is attributed to its
	// current (method, pc) site, with rollback reclassifying the retracted
	// ticks from work to waste and blocking charged against the contended
	// monitor. A nil Profiler adds no cost: all hooks sit behind a nil
	// check, the same contract as Race and Observer.
	Profiler *prof.Profiler

	// OnDeadlock, when non-nil, attaches the wait-for-graph observer:
	// every contended blocking acquisition checks whether the new
	// waits-for edge closes a cycle and, if so, reports it — counted in
	// Stats.DeadlocksDetected, emitted as trace.DeadlockDetected, then
	// passed to the callback with per-edge acquisition sites. Unlike
	// DeadlockDetection the observer never breaks the cycle: the threads
	// stay blocked and the scheduler's all-blocked diagnosis follows. It
	// works in every mode and is the dynamic half of the deadlock
	// cross-validation (rvmrun -deadlock). A nil OnDeadlock adds no cost:
	// the check sits behind a nil test.
	OnDeadlock func(cycle []DeadlockEdge)

	// FIFOMonitorQueues disables the paper's prioritized monitor queues:
	// monitors created by this runtime serve waiters in arrival order.
	// Used by the queue-discipline ablation (the paper implemented
	// prioritized queues "to make the measurements independent of the
	// random order in which threads arrive at a monitor", §4).
	FIFOMonitorQueues bool

	// DisableThinLocks pins every monitor to the inflated
	// prioritized-queue representation; the compact lock word's thin
	// fast path never engages. Used by the lock-word ablation and the
	// inflated-variant micro-benchmarks.
	DisableThinLocks bool

	// Perturb, when non-nil, applies the what-if cost perturbations of the
	// causal profiler (internal/causal): per-site Work scaling, the
	// zero-contention override, and per-monitor revocation disabling. The
	// VM's determinism makes a perturbed re-execution exact, so the clock
	// delta against the baseline is the true virtual speedup. A nil (or
	// empty) Perturb adds no cost: all hooks sit behind nil checks, the
	// same contract as Race, Observer and Profiler.
	Perturb *Perturb

	// Tracer receives runtime events; nil or trace.Discard drops them.
	// Tracer and Observer are joined (trace.Join) into the one sink the
	// scheduler delivers every event through, replacing Sched.Tracer.
	Tracer trace.Sink
}

func (c *Config) fill() {
	if c.CostRead == 0 {
		c.CostRead = 1
	}
	if c.CostWrite == 0 {
		c.CostWrite = 1
	}
	if c.CostLogEntry == 0 {
		c.CostLogEntry = 1
	}
	if c.CostUndoEntry == 0 {
		c.CostUndoEntry = 1
	}
	c.Sched.Tracer = trace.Join(c.Tracer, c.Observer)
}

// Stats aggregates runtime-wide counters; the evaluation harness reports
// them next to elapsed times.
type Stats struct {
	Inversions         int64         `json:"inversions"`          // priority inversions detected
	RevocationRequests int64         `json:"revocation_requests"` // revocations requested
	RevocationsDenied  int64         `json:"revocations_denied"`  // denied because the section was non-revocable
	Rollbacks          int64         `json:"rollbacks"`           // sections actually rolled back
	Reexecutions       int64         `json:"reexecutions"`        // section retries after rollback
	EntriesLogged      int64         `json:"entries_logged"`      // write-barrier slow paths taken
	EntriesUndone      int64         `json:"entries_undone"`      // locations restored by rollbacks
	WastedTicks        simtime.Ticks `json:"wasted_ticks"`
	PreemptedGrants    int64         `json:"preempted_grants"` // handed-over-but-unentered grants revoked
	DeadlocksDetected  int64         `json:"deadlocks_detected"`
	DeadlocksBroken    int64         `json:"deadlocks_broken"`
	Dependencies       int64         `json:"dependencies"` // §2.2 read-write dependencies observed
	NonRevocableMarks  int64         `json:"non_revocable_marks"`
	ContextSwitches    int64         `json:"context_switches"`
	BarrierFastPaths   int64         `json:"barrier_fast_paths"` // non-logging stores (outside sections or Unmodified)
	StoresDeduped      int64         `json:"stores_deduped"`     // in-section stores skipped by first-write-wins logging
	StaticPreMarks     int64         `json:"static_premarks"`    // monitors pre-marked non-revocable by static analysis
	AllocsLogged       int64         `json:"allocs_logged"`      // whole-allocation undo entries (static elision support)
	RawStores          int64         `json:"raw_stores"`         // statically elided stores executed barrier-free
	ConfinedElisions   int64         `json:"confined_elisions"`  // certified confined monitorenter/exit pairs executed as no-ops

	// Compact lock word (internal/monitor).
	ThinAcquisitions int64 `json:"thin_acquisitions"` // ownership transfers on the thin fast path
	Inflations       int64 `json:"inflations"`        // thin → full-monitor transitions
	Deflations       int64 `json:"deflations"`        // uncontended releases that collapsed back to thin

	// Dynamic race sanitizer (Config.Race != nil).
	RacesDetected         int64 `json:"races_detected"`          // confirmed reports emitted
	RaceReportsRetracted  int64 `json:"race_reports_retracted"`  // pending reports dropped because an endpoint rolled back
	RaceAccessesRetracted int64 `json:"race_accesses_retracted"` // access records retracted by rollbacks
	RaceChecksSkipped     int64 `json:"race_checks_skipped"`     // accesses skipped on certified race-free slots
}

// Runtime hosts a simulated VM instance.
type Runtime struct {
	cfg  Config
	sch  *sched.Scheduler
	hp   *heap.Heap
	spec *jmm.Table

	tasks    map[int]*Task
	monitors []*monitor.Monitor
	objMons  map[*heap.Object]*monitor.Monitor
	waiting  map[*Task]*monitor.Monitor // waits-for edges (deadlock graph)

	stats          Stats
	lastDetectScan simtime.Ticks
	scaleRem       map[Site]int64 // Perturb.Scale per-site remainders

	// noDedup disables first-write-wins undo logging, forcing one log entry
	// per store as in the paper's unoptimized barrier. Test-only: the
	// rollback-equivalence property runs identical programs with and without
	// dedup and asserts the heaps end identical.
	noDedup bool
	// slowCharges holds every task on the full charge path, as a profiler
	// does. Test-only: the fast-charge equivalence test runs identical
	// workloads with and without it and asserts identical ticks.
	slowCharges bool
}

// New creates a runtime with a fresh scheduler and heap.
func New(cfg Config) *Runtime {
	cfg.fill()
	hp := heap.New()
	rt := &Runtime{
		cfg:     cfg,
		sch:     sched.New(cfg.Sched),
		hp:      hp,
		spec:    jmm.NewTable(hp),
		tasks:   make(map[int]*Task),
		objMons: make(map[*heap.Object]*monitor.Monitor),
		waiting: make(map[*Task]*monitor.Monitor),
	}
	if cfg.Race != nil {
		cfg.Race.Bind(hp, cfg.Sched.Tracer, rt.sch.Now)
	}
	if cfg.Profiler != nil {
		p := cfg.Profiler
		p.SetClock(rt.sch.Now)
		rt.sch.OnSwitchCost = func(d simtime.Ticks) { p.SchedTick("context-switch", d) }
		rt.sch.OnIdle = func(d simtime.Ticks) { p.SchedTick("idle", d) }
	}
	if cfg.Mode == Revocation && (cfg.Detect == DetectPeriodic || cfg.Detect == DetectBoth) {
		period := cfg.DetectPeriod
		if period <= 0 {
			period = rt.sch.Quantum()
		}
		rt.sch.PreDispatch = func(*sched.Thread) {
			if rt.sch.Now()-rt.lastDetectScan >= period {
				rt.lastDetectScan = rt.sch.Now()
				rt.scanForInversions()
			}
		}
	}
	return rt
}

// Heap returns the runtime's heap.
func (rt *Runtime) Heap() *heap.Heap { return rt.hp }

// Scheduler returns the underlying scheduler.
func (rt *Runtime) Scheduler() *sched.Scheduler { return rt.sch }

// Now returns the current virtual time.
func (rt *Runtime) Now() simtime.Ticks { return rt.sch.Now() }

// Config returns the runtime's (filled-in) configuration.
func (rt *Runtime) Config() Config { return rt.cfg }

// Mode returns the runtime's VM mode.
func (rt *Runtime) Mode() Mode { return rt.cfg.Mode }

// NewMonitor creates a standalone named monitor.
func (rt *Runtime) NewMonitor(name string) *monitor.Monitor {
	m := monitor.New(rt.sch, name)
	m.FIFOQueue = rt.cfg.FIFOMonitorQueues
	if rt.cfg.DisableThinLocks {
		m.DisableThin()
	}
	if p := rt.cfg.Perturb; p != nil && p.NoRevoke[name] {
		// The per-monitor revocation ablation: pinned non-revocable from
		// birth, exactly like a static pre-mark — requests are denied and
		// its sections run without undo logging.
		m.MarkNonRevocable("whatif: revocation disabled")
	}
	rt.monitors = append(rt.monitors, m)
	return m
}

// MonitorFor returns the monitor associated with a heap object, creating it
// on first use — in Java every object can act as a monitor.
func (rt *Runtime) MonitorFor(o *heap.Object) *monitor.Monitor {
	if m, ok := rt.objMons[o]; ok {
		return m
	}
	m := rt.NewMonitor(o.String())
	rt.objMons[o] = m
	return m
}

// Monitors returns every monitor created so far (shared slice).
func (rt *Runtime) Monitors() []*monitor.Monitor { return rt.monitors }

// Spawn creates a simulated thread running body.
func (rt *Runtime) Spawn(name string, prio sched.Priority, body func(*Task)) *Task {
	task := &Task{rt: rt, clk: rt.sch.Clock(), log: undo.NewLog(64), costMask: -1}
	if rt.cfg.NoCosts {
		task.costMask = 0
	}
	if rt.cfg.Profiler != nil {
		task.tp = rt.cfg.Profiler.Thread(name)
	}
	task.th = rt.sch.Spawn(name, prio, func(th *sched.Thread) {
		body(task)
		task.finish()
	})
	task.th.Data = task
	task.setRevokeReq(nil) // holds a profiled task from its first charge
	rt.tasks[task.th.ID()] = task
	if rt.cfg.Race != nil {
		rt.cfg.Race.ThreadStart(task.th.ID(), name)
	}
	return task
}

// Run drives the scheduler until every thread completes. On error the
// thread goroutines are drained.
func (rt *Runtime) Run() error {
	err := rt.sch.Run()
	if err != nil {
		rt.sch.Drain()
		return err
	}
	return nil
}

// Stats returns a snapshot of the aggregated counters.
func (rt *Runtime) Stats() Stats {
	s := rt.stats
	s.Dependencies = rt.spec.Dependencies()
	s.ContextSwitches = rt.sch.ContextSwitches()
	for _, t := range rt.tasks {
		s.EntriesLogged += t.log.Appended()
		s.EntriesUndone += t.log.Undone()
		s.StoresDeduped += t.log.Deduped()
		s.AllocsLogged += t.log.AllocsLogged()
	}
	for _, m := range rt.monitors {
		s.ThinAcquisitions += m.ThinAcquisitions()
		s.Inflations += m.Inflations()
		s.Deflations += m.Deflations()
	}
	if rt.cfg.Race != nil {
		s.RacesDetected, s.RaceReportsRetracted, s.RaceAccessesRetracted = rt.cfg.Race.Stats()
		s.RaceChecksSkipped = rt.cfg.Race.ChecksSkipped()
	}
	return s
}

// Tasks returns all spawned tasks keyed by thread id.
func (rt *Runtime) Tasks() map[int]*Task { return rt.tasks }

// ---------------------------------------------------------------------------
// Task: one simulated thread plus its revocation state.

// revocation is a pending request delivered at the victim's next yield
// point.
type revocation struct {
	mon       *monitor.Monitor
	monGen    uint64
	requester string
	reason    string // "priority-inversion" or "deadlock"
}

// frame records one Synchronized activation.
type frame struct {
	mon       *monitor.Monitor
	monGen    uint64
	logMark   undo.Mark
	reentrant bool // monitor already held when this frame was pushed
	startCPU  simtime.Ticks
	attempts  int
	// elided marks a what-if frame under Perturb.Uncontended: the monitor
	// was never actually acquired, so exit and rollback must not release
	// it and the revocation stale-guard must not expect ownership.
	elided bool
}

// rollbackSignal unwinds the Go stack from the yield point that delivered a
// revocation to the Synchronized frame being revoked. It never escapes the
// package: every Synchronized recovers it.
type rollbackSignal struct {
	target int // frame index to restart
	reason string
}

// Task is a simulated thread of the runtime.
type Task struct {
	rt  *Runtime
	th  *sched.Thread
	clk *simtime.Clock // the scheduler's clock: the fast charge's one object
	log *undo.Log

	frames  []frame
	spanGen uint64 // increments when the outermost frame is pushed
	// revokeReq is the pending revocation; every write goes through
	// setRevokeReq, which keeps the thread held while one is pending.
	revokeReq *revocation

	// costMask is all ones, or 0 under Config.NoCosts: the fast charge
	// paths mask their cost with it instead of branching on the config.
	costMask simtime.Ticks

	// nonRevBelow caches how many frames, from the outermost in, are known
	// to guard non-revocable monitors. When it reaches len(frames) no active
	// section can be a rollback target and stores skip undo logging
	// entirely — the payoff of static pre-marking. Clamped wherever frames
	// are popped, and at Wait's re-acquire (the one point a still-held
	// monitor's non-revocable flag can reset).
	nonRevBelow int

	// retryAttempts carries the attempt counter of a rolled-back frame
	// into its re-execution (set in Synchronized, consumed in enter).
	retryAttempts int

	// Per-task statistics.
	rollbacks    int64
	reexecutions int64

	// lockMethod/lockPC name the bytecode site of the next monitor
	// acquisition for the wait-for-graph observer (set by the interpreter
	// via SetLockSite; empty for Go-level acquisitions).
	lockMethod string
	lockPC     int
	// acqSites records, per currently-held monitor, the site that acquired
	// it — populated only when Config.OnDeadlock is set, so the observer's
	// cycle reports can name every edge's monitorenter.
	acqSites map[*monitor.Monitor]string

	// raceMethod/racePC name the bytecode site of the next barriered access
	// for the race sanitizer (set by the interpreter via SetRaceSite; empty
	// for Go-level API accesses).
	raceMethod string
	racePC     int

	// tp is the task's virtual-time profiler handle (nil when
	// Config.Profiler is nil). The interpreter maintains its call stack
	// and pc via SetProfSite/ProfPush/ProfPopTo; Go-level tasks profile
	// under the thread root alone.
	tp *prof.ThreadProf
}

// Thread returns the underlying scheduler thread.
func (t *Task) Thread() *sched.Thread { return t.th }

// Name returns the thread name.
func (t *Task) Name() string { return t.th.Name() }

// Priority returns the thread's current priority.
func (t *Task) Priority() sched.Priority { return t.th.Priority() }

// Rollbacks returns how many times this task's sections were rolled back.
func (t *Task) Rollbacks() int64 { return t.rollbacks }

// Depth returns the current synchronized-section nesting depth.
func (t *Task) Depth() int { return len(t.frames) }

// InSection reports whether the task is inside any synchronized section.
func (t *Task) InSection() bool { return len(t.frames) > 0 }

// finish runs when the task body returns; it validates cleanliness.
func (t *Task) finish() {
	if len(t.frames) > 0 {
		panic(fmt.Sprintf("core: task %s finished holding %d synchronized sections", t.Name(), len(t.frames)))
	}
	t.rt.spec.DropThread(t.th.ID())
	if t.rt.cfg.Race != nil {
		t.rt.cfg.Race.ThreadEnd(t.th.ID())
	}
}

// setRevokeReq is the one writer of revokeReq. A pending request holds
// the thread (sched.Thread.Hold) so the next charge reaches the yield
// point that delivers it; a profiled task holds for good, since every
// tick needs its site.
func (t *Task) setRevokeReq(r *revocation) {
	t.revokeReq = r
	t.th.Hold(r != nil || t.tp != nil || t.rt.slowCharges)
}

// step charges cost ticks, passes a yield point, and delivers any pending
// revocation. Every shared-data operation does this, making each operation
// a yield point exactly as the paper's compiler arranges; the barriers
// open-code it so their fast path makes no call.
func (t *Task) step(cost simtime.Ticks) {
	if !t.chargeFast(cost) {
		t.stepSlow(cost)
	}
}

// chargeFast charges cost and reports true when it is below the clock's
// fast-charge bound: then no yield point the charge passes could act, so
// the charge is one compare and the clock add. The bound is closed while
// a preemption or revocation is pending or a profiler is attached, which
// sends every such charge to stepSlow. It inlines into every barrier.
func (t *Task) chargeFast(cost simtime.Ticks) bool {
	return t.clk.TryAdvance(cost & t.costMask)
}

// TryStep is chargeFast for the execution tiers: it charges cost and
// reports true when the charge passes no yield point that would act.
// Callers call Step when it reports false.
func (t *Task) TryStep(cost simtime.Ticks) bool { return t.chargeFast(cost) }

// stepSlow is step's full path: the charge, the profiler tick, the yield
// point and revocation delivery.
func (t *Task) stepSlow(cost simtime.Ticks) {
	if !t.rt.cfg.NoCosts {
		t.th.Advance(cost)
		if t.tp != nil {
			t.tp.Tick(cost)
		}
	}
	t.th.YieldPoint()
	if t.revokeReq != nil {
		t.deliverRevocation()
	}
}

// Headroom returns how many ticks the running task may charge through
// Charge without skipping a yield point that would act: the clock's
// fast-charge bound, which is closed (0) while a profiler is attached
// (every tick needs its site), a revocation is pending or a preemption
// was requested.
func (t *Task) Headroom() simtime.Ticks { return t.clk.Headroom() }

// Charge adds d ticks (none under Config.NoCosts) without a yield point.
// The caller guarantees 0 <= d < Headroom(), so the yield points the
// charge stands in for would not have acted: the clock, the switch points
// and every counter are exactly those of the same ticks charged through
// Step.
func (t *Task) Charge(d simtime.Ticks) { t.clk.Advance(d & t.costMask) }

// Step charges one instruction's cost, cost >= 0: the single
// per-instruction entry of every execution tier. It is Work without
// Perturb scaling — a cost above the quantum is split into quantum-sized
// charges, each its own yield point.
func (t *Task) Step(cost simtime.Ticks) {
	switch {
	case t.chargeFast(cost):
	case cost > t.rt.sch.Quantum():
		t.work(cost)
	default:
		t.stepSlow(cost)
	}
}

// Work charges n ticks of thread-local computation (no logging, no
// barriers), passing yield points along the way. Perturb.Scale applies.
func (t *Task) Work(n simtime.Ticks) {
	if p := t.rt.cfg.Perturb; p != nil && len(p.Scale) > 0 && t.tp != nil {
		scaled, applied := t.rt.scaleWork(t, n)
		if applied {
			if scaled <= 0 {
				// Scaled-away work still passes its yield point, so
				// preemption and revocation delivery keep their sites.
				t.step(0)
				return
			}
			n = scaled
		}
	}
	t.work(n)
}

// work charges n ticks in charges of at most one quantum, each a yield
// point.
func (t *Task) work(n simtime.Ticks) {
	q := t.rt.sch.Quantum()
	for n > 0 {
		c := n
		if c > q {
			c = q
		}
		t.step(c)
		n -= c
	}
}

// Sleep suspends the task for d virtual ticks.
func (t *Task) Sleep(d simtime.Ticks) {
	t.th.Sleep(d)
	if t.revokeReq != nil {
		t.deliverRevocation()
	}
}

// YieldPoint passes an explicit yield point (method entry, loop back-edge).
func (t *Task) YieldPoint() { t.step(0) }

// ---------------------------------------------------------------------------
// Barriers. In Revocation mode, stores inside a synchronized section take
// the slow path: log the old value and register the location as
// speculative. Reads consult the speculation table to detect the read-write
// dependencies of §2.2.

func (t *Task) spanRef() jmm.SpanRef {
	return jmm.SpanRef{Thread: t.th.ID(), Gen: t.spanGen}
}

// logging reports whether stores must be logged right now: Revocation mode,
// inside a section, and at least one active frame still revocable. When
// every frame's monitor is non-revocable no rollback can target this task,
// so undo entries would never be replayed — the section runs log-free.
func (t *Task) logging() bool {
	if t.rt.cfg.Mode != Revocation || len(t.frames) == 0 {
		return false
	}
	for t.nonRevBelow < len(t.frames) {
		if nr, _ := t.frames[t.nonRevBelow].mon.NonRevocable(); !nr {
			return true
		}
		t.nonRevBelow++
	}
	return false
}

// clampNonRevBelow re-establishes nonRevBelow ≤ len(frames) after frames
// are popped.
func (t *Task) clampNonRevBelow() {
	if t.nonRevBelow > len(t.frames) {
		t.nonRevBelow = len(t.frames)
	}
}

// sectionMark returns the innermost active frame's log mark — the
// first-write-wins boundary: a location already logged at or after it needs
// no new undo entry for any rollback this task can still perform.
func (t *Task) sectionMark() undo.Mark {
	return t.frames[len(t.frames)-1].logMark
}

// chargeLogEntry charges the write-barrier slow path (one appended undo
// entry); deduped stores skip it, which is the §3.1.2 cost the dedup saves.
func (t *Task) chargeLogEntry() {
	if !t.rt.cfg.NoCosts {
		t.th.Advance(t.rt.cfg.CostLogEntry)
		if t.tp != nil {
			t.tp.Tick(t.rt.cfg.CostLogEntry)
		}
	}
}

// logObjectStore logs the pre-store value of (o, idx), deduped unless the
// runtime's test-only noDedup knob is set; it reports whether an entry was
// appended.
func (t *Task) logObjectStore(o *heap.Object, idx int) bool {
	if t.rt.noDedup {
		t.log.LogObject(o, idx, o.Get(idx))
		return true
	}
	return t.log.LogObjectOnce(o, idx, o.Get(idx), t.sectionMark())
}

// logArrayStore is logObjectStore for array elements.
func (t *Task) logArrayStore(a *heap.Array, idx int) bool {
	if t.rt.noDedup {
		t.log.LogArray(a, idx, a.Get(idx))
		return true
	}
	return t.log.LogArrayOnce(a, idx, a.Get(idx), t.sectionMark())
}

// logStaticStore is logObjectStore for static variables.
func (t *Task) logStaticStore(idx int) bool {
	if t.rt.noDedup {
		t.log.LogStatic(idx, t.rt.hp.GetStatic(idx))
		return true
	}
	return t.log.LogStaticOnce(t.rt.hp, idx, t.rt.hp.GetStatic(idx), t.sectionMark())
}

// WriteField stores v into field idx of o through the write barrier.
func (t *Task) WriteField(o *heap.Object, idx int, v heap.Word) {
	if c := t.rt.cfg.CostWrite; !t.chargeFast(c) {
		t.stepSlow(c)
	}
	if t.logging() {
		if t.logObjectStore(o, idx) {
			t.chargeLogEntry()
			if t.rt.cfg.TrackDependencies {
				t.rt.spec.RegisterObject(o, idx, t.spanRef())
			}
		}
	} else {
		t.rt.stats.BarrierFastPaths++
	}
	o.Set(idx, v)
	if o.IsVolatile(idx) {
		if t.rt.sch.Tracing() { // the object's display name is formatted
			t.rt.sch.Emit(trace.Event{Kind: trace.VolatileWrite, Thread: t.Name(), Object: o.String(), Detail: o.FieldName(idx)})
		}
		if d := t.rt.cfg.Race; d != nil {
			d.VolatileWrite(t.th.ID(), race.Slot{Kind: heap.KindObject, ID: o.ID(), Idx: idx}, t.raceSite())
		}
	} else if d := t.rt.cfg.Race; d != nil {
		d.Write(t.th.ID(), race.Slot{Kind: heap.KindObject, ID: o.ID(), Idx: idx}, t.raceSite())
	}
}

// ReadField loads field idx of o through the read barrier.
func (t *Task) ReadField(o *heap.Object, idx int) heap.Word {
	if c := t.rt.cfg.CostRead; !t.chargeFast(c) {
		t.stepSlow(c)
	}
	if t.rt.cfg.TrackDependencies && t.rt.spec.HasForeign(t.th.ID()) {
		t.dependencyHit(t.rt.spec.CheckReadObject(o, idx, t.th.ID()))
	}
	if o.IsVolatile(idx) {
		if t.rt.sch.Tracing() {
			t.rt.sch.Emit(trace.Event{Kind: trace.VolatileRead, Thread: t.Name(), Object: o.String(), Detail: o.FieldName(idx)})
		}
		if d := t.rt.cfg.Race; d != nil {
			d.VolatileRead(t.th.ID(), race.Slot{Kind: heap.KindObject, ID: o.ID(), Idx: idx}, t.raceSite())
		}
	} else if d := t.rt.cfg.Race; d != nil {
		d.Read(t.th.ID(), race.Slot{Kind: heap.KindObject, ID: o.ID(), Idx: idx}, t.raceSite())
	}
	return o.Get(idx)
}

// WriteElem stores v into element idx of a through the write barrier.
func (t *Task) WriteElem(a *heap.Array, idx int, v heap.Word) {
	if c := t.rt.cfg.CostWrite; !t.chargeFast(c) {
		t.stepSlow(c)
	}
	if t.logging() {
		if t.logArrayStore(a, idx) {
			t.chargeLogEntry()
			if t.rt.cfg.TrackDependencies {
				t.rt.spec.RegisterArray(a, idx, t.spanRef())
			}
		}
	} else {
		t.rt.stats.BarrierFastPaths++
	}
	a.Set(idx, v)
	if d := t.rt.cfg.Race; d != nil {
		d.Write(t.th.ID(), race.Slot{Kind: heap.KindArray, ID: a.ID(), Idx: idx}, t.raceSite())
	}
}

// ReadElem loads element idx of a through the read barrier.
func (t *Task) ReadElem(a *heap.Array, idx int) heap.Word {
	if c := t.rt.cfg.CostRead; !t.chargeFast(c) {
		t.stepSlow(c)
	}
	if t.rt.cfg.TrackDependencies && t.rt.spec.HasForeign(t.th.ID()) {
		t.dependencyHit(t.rt.spec.CheckReadArray(a, idx, t.th.ID()))
	}
	if d := t.rt.cfg.Race; d != nil {
		d.Read(t.th.ID(), race.Slot{Kind: heap.KindArray, ID: a.ID(), Idx: idx}, t.raceSite())
	}
	return a.Get(idx)
}

// WriteStatic stores v into static offset idx through the write barrier.
func (t *Task) WriteStatic(idx int, v heap.Word) {
	if c := t.rt.cfg.CostWrite; !t.chargeFast(c) {
		t.stepSlow(c)
	}
	if t.logging() {
		if t.logStaticStore(idx) {
			t.chargeLogEntry()
			if t.rt.cfg.TrackDependencies {
				t.rt.spec.RegisterStatic(idx, t.spanRef())
			}
		}
	} else {
		t.rt.stats.BarrierFastPaths++
	}
	t.rt.hp.SetStatic(idx, v)
	if t.rt.hp.IsStaticVolatile(idx) {
		t.rt.sch.Emit(trace.Event{Kind: trace.VolatileWrite, Thread: t.Name(), Object: t.rt.hp.StaticName(idx)})
		if d := t.rt.cfg.Race; d != nil {
			d.VolatileWrite(t.th.ID(), race.Slot{Kind: heap.KindStatic, Idx: idx}, t.raceSite())
		}
	} else if d := t.rt.cfg.Race; d != nil {
		d.Write(t.th.ID(), race.Slot{Kind: heap.KindStatic, Idx: idx}, t.raceSite())
	}
}

// ReadStatic loads static offset idx through the read barrier.
func (t *Task) ReadStatic(idx int) heap.Word {
	if c := t.rt.cfg.CostRead; !t.chargeFast(c) {
		t.stepSlow(c)
	}
	if t.rt.cfg.TrackDependencies && t.rt.spec.HasForeign(t.th.ID()) {
		t.dependencyHit(t.rt.spec.CheckReadStatic(idx, t.th.ID()))
	}
	if t.rt.hp.IsStaticVolatile(idx) {
		t.rt.sch.Emit(trace.Event{Kind: trace.VolatileRead, Thread: t.Name(), Object: t.rt.hp.StaticName(idx)})
		if d := t.rt.cfg.Race; d != nil {
			d.VolatileRead(t.th.ID(), race.Slot{Kind: heap.KindStatic, Idx: idx}, t.raceSite())
		}
	} else if d := t.rt.cfg.Race; d != nil {
		d.Read(t.th.ID(), race.Slot{Kind: heap.KindStatic, Idx: idx}, t.raceSite())
	}
	return t.rt.hp.GetStatic(idx)
}

// dependencyHit handles the result of a read-barrier location check: on a
// hit, the writer's active monitors become non-revocable (§2.2).
func (t *Task) dependencyHit(ref jmm.SpanRef, hit bool) {
	if !hit {
		return
	}
	writer, ok := t.rt.tasks[ref.Thread]
	if !ok || writer.spanGen != ref.Gen || len(writer.frames) == 0 {
		return // stale entry: the span already committed
	}
	writer.markNonRevocable(fmt.Sprintf("read-write dependency (reader %s)", t.Name()))
}

// markNonRevocable marks every active frame's monitor span non-revocable.
// Marking propagates to all enclosing monitors, as the paper requires for
// native methods and nested writes (§2.2 and footnote 1).
func (t *Task) markNonRevocable(reason string) {
	marked := false
	for i := range t.frames {
		f := &t.frames[i]
		if f.reentrant {
			continue
		}
		if nr, _ := f.mon.NonRevocable(); !nr {
			f.mon.MarkNonRevocable(reason)
			marked = true
			t.rt.sch.Emit(trace.Event{Kind: trace.NonRevocable, Thread: t.Name(), Object: f.mon.Name(), Detail: reason})
		}
	}
	if marked {
		t.rt.stats.NonRevocableMarks++
	}
}

// Native runs f as a native method: its effects cannot be revoked, so all
// enclosing monitors become non-revocable first (§2.2).
func (t *Task) Native(name string, f func()) {
	if len(t.frames) > 0 {
		t.markNonRevocable("native method " + name)
	}
	t.rt.sch.Emit(trace.Event{Kind: trace.NativeCall, Thread: t.Name(), Detail: name})
	if f != nil {
		f()
	}
}

// ---------------------------------------------------------------------------
// Synchronized sections.

// Synchronized executes body holding m, with the revocation semantics of
// the runtime's mode. Re-entry by the owner is permitted (Java reentrancy);
// rollback always restarts from the *first* acquisition of the revoked
// monitor.
func (t *Task) Synchronized(m *monitor.Monitor, body func()) {
	for {
		t.enter(m)
		sig := t.runBody(body)
		if sig == nil {
			t.commitTop(m)
			return
		}
		// A revocation unwound the stack to this frame. The undo replay
		// and monitor releases already happened at the yield point that
		// delivered it; only bookkeeping remains.
		myIdx := len(t.frames) - 1
		f := t.frames[myIdx]
		t.frames = t.frames[:myIdx]
		t.clampNonRevBelow()
		if sig.target != myIdx {
			panic(*sig) // rollback target is an enclosing section
		}
		t.reexecute(f, sig.reason, "")
	}
}

// reexecute records the re-execution of the rolled-back section f and
// applies the deadlock backoff (the guard against revocation livelock,
// §1.1). The next enter's frame inherits f's attempt count. via is the
// re-execution event's Detail: "" for Synchronized, "engine" for engines.
func (t *Task) reexecute(f frame, reason, via string) {
	t.reexecutions++
	t.rt.stats.Reexecutions++
	t.rt.sch.Emit(trace.Event{Kind: trace.Reexecution, Thread: t.Name(), Object: f.mon.Name(), N: int64(f.attempts + 1), Detail: via})
	if reason == "deadlock" {
		backoff := t.rt.cfg.DeadlockBackoff
		if backoff <= 0 {
			backoff = t.rt.sch.Quantum()
		}
		t.Sleep(backoff * simtime.Ticks(f.attempts))
	}
	t.retryAttempts = f.attempts
}

// runBody executes the section body, converting a rollbackSignal panic into
// a return value. All other panics propagate.
func (t *Task) runBody(body func()) (sig *rollbackSignal) {
	defer func() {
		if r := recover(); r != nil {
			if s, ok := r.(rollbackSignal); ok {
				sig = &s
				return
			}
			panic(r)
		}
	}()
	body()
	return nil
}

// enter acquires m, pushing a frame. It implements the paper's detection
// algorithm: a contended acquisition compares the acquirer's priority to
// the priority deposited in the monitor and requests revocation when the
// owner's is lower (§4).
func (t *Task) enter(m *monitor.Monitor) {
	rt := t.rt
	t.YieldPoint() // method-entry yield point
	if p := rt.cfg.Perturb; p != nil && p.Uncontended[m.Name()] {
		t.enterElided(m)
		return
	}
	for {
		if m.TryEnter(t.th) {
			break
		}
		rt.sch.Emit(trace.Event{Kind: trace.MonitorEnter, Thread: t.Name(), Object: m.Name(), Detail: "contended"})
		owner := m.Owner()
		if owner == nil {
			// Free, but a higher-priority thread is queued ahead of us
			// (the paper's prioritized admission): just wait our turn.
			rt.sch.Emit(trace.Event{Kind: trace.MonitorBlocked, Thread: t.Name(), Object: m.Name(), Detail: "queued"})
			rt.waiting[t] = m
			blockedAt := rt.sch.Now()
			kind := m.BlockOn(t.th)
			if t.tp != nil {
				t.tp.BlockTick(rt.sch.Now()-blockedAt, m.Name())
			}
			delete(rt.waiting, t)
			if kind == sched.WakeInterrupt && t.revokeReq != nil {
				t.deliverRevocation()
			}
			continue
		}
		ownerTask, _ := owner.Data.(*Task)
		if t.th.Priority() > m.OwnerPriority() {
			rt.stats.Inversions++
			rt.sch.Emit(trace.Event{Kind: trace.InversionDetected, Thread: t.Name(), Object: m.Name(), Other: owner.Name(), Aux: int64(m.OwnerPriority())})
			if rt.cfg.Mode == Revocation && (rt.cfg.Detect == DetectOnAcquire || rt.cfg.Detect == DetectBoth) && ownerTask != nil {
				if !rt.requestRevocation(ownerTask, m, "priority-inversion", t.Name()) && rt.cfg.InheritOnDenied {
					rt.boostChain(ownerTask, t.th.Priority())
				}
			}
		}
		if rt.cfg.PriorityInheritance && ownerTask != nil && owner.Priority() < t.th.Priority() {
			rt.boostChain(ownerTask, t.th.Priority())
		}
		rt.waiting[t] = m
		if rt.cfg.OnDeadlock != nil {
			rt.observeWFG(t, m)
		}
		if rt.cfg.DeadlockDetection && rt.cfg.Mode == Revocation {
			rt.resolveDeadlock(t, m)
			if t.revokeReq != nil { // self-victim
				delete(rt.waiting, t)
				t.deliverRevocation()
			}
		}
		rt.sch.Emit(trace.Event{Kind: trace.MonitorBlocked, Thread: t.Name(), Object: m.Name(), Other: owner.Name()})
		blockedAt := rt.sch.Now()
		kind := m.BlockOn(t.th)
		if t.tp != nil {
			t.tp.BlockTick(rt.sch.Now()-blockedAt, m.Name())
		}
		delete(rt.waiting, t)
		if kind == sched.WakeGranted {
			// A revocation may have targeted our still-pending grant: a
			// higher-priority thread arrived while we were queued and
			// granted but not yet dispatched. Release untouched, re-queue.
			if req := t.revokeReq; req != nil && req.mon == m && req.monGen == m.Gen() && t.firstFrameOf(m) < 0 {
				t.setRevokeReq(nil)
				rt.stats.PreemptedGrants++
				rt.sch.Emit(trace.Event{Kind: trace.Rollback, Thread: t.Name(), Object: m.Name(), Other: req.requester, Detail: req.reason})
				m.ForceRelease(t.th)
				continue
			}
			break
		}
		if kind == sched.WakeInterrupt {
			// This blocked thread is itself a revocation victim.
			if t.revokeReq != nil {
				t.deliverRevocation()
			}
			continue
		}
	}
	if rt.cfg.PriorityCeiling && m.Ceiling > t.th.Priority() {
		rt.sch.SetPriority(t.th, m.Ceiling)
	}
	if rt.cfg.OnDeadlock != nil {
		if t.acqSites == nil {
			t.acqSites = make(map[*monitor.Monitor]string)
		}
		t.acqSites[m] = t.lockSite()
	}
	t.pushFrame(m, m.EntryCount() > 1, false)
}

// enterElided pushes a what-if frame for a monitor running under the
// zero-contention override (Perturb.Uncontended): the section executes
// with acquisition elided — no queueing, no blocking, no ownership, no
// revocation on this monitor — while write barriers, undo logging and
// every tick charge inside the section stay exactly as in the baseline.
// The re-execution therefore answers "how many ticks does making this
// monitor uncontended buy" and nothing else.
func (t *Task) enterElided(m *monitor.Monitor) {
	reentrant := false
	for _, f := range t.frames {
		if f.mon == m {
			reentrant = true
			break
		}
	}
	t.pushFrame(m, reentrant, true)
}

// pushFrame opens a section frame on m, acquired for real or elided by the
// what-if override, and notifies the attached observers.
func (t *Task) pushFrame(m *monitor.Monitor, reentrant, elided bool) {
	if !reentrant && len(t.frames) == 0 {
		t.spanGen++
	}
	t.frames = append(t.frames, frame{
		mon:       m,
		monGen:    m.Gen(),
		logMark:   t.log.Mark(),
		reentrant: reentrant,
		startCPU:  t.th.CPU(),
		attempts:  t.retryAttempts,
		elided:    elided,
	})
	t.retryAttempts = 0
	if d := t.rt.cfg.Race; d != nil {
		if !reentrant {
			d.Acquire(t.th.ID(), m)
		}
		d.SectionEnter(t.th.ID()) // mark pushed for every frame, reentrant included
	}
	if t.tp != nil {
		t.tp.SectionEnter()
	}
	// N carries the undo-log depth so trace consumers (the Perfetto counter
	// tracks) can plot speculative state without replaying barrier logic.
	t.rt.sch.Emit(trace.Event{Kind: trace.MonitorAcquired, Thread: t.Name(), Object: m.Name(), N: int64(t.log.Len()), Aux: int64(len(t.frames)), Detail: elidedDetail(elided)})
}

// elidedDetail is the Detail of a monitor event on a frame: "elided" for a
// what-if frame, empty otherwise.
func elidedDetail(elided bool) string {
	if elided {
		return "elided"
	}
	return ""
}

// commitTop exits the top frame normally. Updates become permanent only
// when the outermost frame commits; until then an enclosing rollback could
// still revoke them (Figure 2's scenario, guarded by the §2.2 marking).
func (t *Task) commitTop(m *monitor.Monitor) {
	rt := t.rt
	f := t.frames[len(t.frames)-1]
	if f.mon != m {
		panic(fmt.Sprintf("core: commit of %s but top frame holds %s", m.Name(), f.mon.Name()))
	}
	t.frames = t.frames[:len(t.frames)-1]
	t.clampNonRevBelow()
	if len(t.frames) == 0 && t.log.Len() > 0 {
		if rt.cfg.TrackDependencies {
			id := t.th.ID()
			t.log.Range(0, func(e undo.Entry) { rt.spec.Unregister(e.Loc(), id) })
		}
		t.log.Truncate(0)
	}
	// A what-if frame owns nothing: no monitor to exit, no boost to drop.
	// Everything else commits as usual.
	fully := !f.reentrant
	if !f.elided {
		fully = m.Exit(t.th)
		if fully && (rt.cfg.PriorityCeiling || rt.cfg.PriorityInheritance) {
			rt.unboost(t)
		}
	}
	if d := rt.cfg.Race; d != nil {
		// A reentrant exit is not a real release: no synchronizes-with edge
		// until ownership actually drops.
		if fully {
			d.Release(t.th.ID(), m)
		}
		d.SectionCommit(t.th.ID())
	}
	if t.tp != nil {
		t.tp.SectionCommit()
	}
	rt.sch.Emit(trace.Event{Kind: trace.MonitorExit, Thread: t.Name(), Object: m.Name(), N: int64(t.log.Len()), Detail: elidedDetail(f.elided)})
	t.YieldPoint()
}

// ---------------------------------------------------------------------------
// Revocation.

// requestRevocation asks victim to roll back its section guarding m. It
// returns false when the section is non-revocable (§2.2) or the victim no
// longer holds m. The caller still blocks on the monitor's prioritized
// queue; the rollback hands the monitor over when it happens.
func (rt *Runtime) requestRevocation(victim *Task, m *monitor.Monitor, reason, requester string) bool {
	idx := victim.firstFrameOf(m)
	if idx < 0 {
		// The victim owns m through a direct handoff it has not yet
		// executed (granted while queued, not yet dispatched). The grant
		// itself is revoked: once dispatched, the victim releases m
		// untouched and re-queues — trivially "as if it never executed
		// the section".
		if m.Owner() != victim.th {
			return false
		}
		if victim.revokeReq != nil && victim.firstFrameOf(victim.revokeReq.mon) >= 0 {
			return true // an enclosing rollback will release m anyway
		}
		victim.setRevokeReq(&revocation{mon: m, monGen: m.Gen(), requester: requester, reason: reason})
		rt.stats.RevocationRequests++
		rt.sch.Expedite(victim.th)
		rt.sch.Emit(trace.Event{Kind: trace.RevokeRequested, Thread: victim.Name(), Object: m.Name(), Other: requester, Detail: reason})
		return true
	}
	if nr, why := m.NonRevocable(); nr {
		rt.stats.RevocationsDenied++
		rt.sch.Emit(trace.Event{Kind: trace.RevokeDenied, Thread: victim.Name(), Object: m.Name(), Detail: why})
		return false
	}
	// Any frame at or above the target marked non-revocable has already
	// propagated to the target's monitor, so the check above suffices.
	req := &revocation{mon: m, monGen: m.Gen(), requester: requester, reason: reason}
	if victim.revokeReq != nil {
		// Keep the outermost target: rolling back the outer section
		// subsumes the inner one.
		cur := victim.firstFrameOf(victim.revokeReq.mon)
		if cur >= 0 && cur <= idx {
			return true
		}
	}
	victim.setRevokeReq(req)
	rt.stats.RevocationRequests++
	rt.sch.Emit(trace.Event{Kind: trace.RevokeRequested, Thread: victim.Name(), Object: m.Name(), Other: requester, Aux: int64(idx + 1), Detail: reason})
	// A blocked or sleeping victim cannot reach a yield point on its own:
	// interrupt it so the request is delivered promptly.
	switch victim.th.State() {
	case sched.StateBlocked:
		rt.sch.Unblock(victim.th, sched.WakeInterrupt)
	case sched.StateSleeping:
		rt.sch.WakeSleeper(victim.th, sched.WakeInterrupt)
	}
	// "The scheduler initiates a context-switch and triggers rollback of
	// the low priority thread at the next yield point" (§4): dispatch the
	// victim next so the rollback happens promptly instead of after a full
	// round-robin rotation.
	rt.sch.Expedite(victim.th)
	return true
}

// firstFrameOf returns the index of the first (outermost) frame holding m,
// or -1.
func (t *Task) firstFrameOf(m *monitor.Monitor) int {
	for i, f := range t.frames {
		if f.mon == m && !f.reentrant {
			return i
		}
	}
	return -1
}

// deliverRevocation performs the rollback on the victim's own stack, at a
// yield point. Matching the paper (§3.1.2), the undo log is replayed
// *before* any monitor is released, so partial results never become visible
// to other threads; the whole sequence runs without yield points, so it is
// atomic in virtual time. It finishes by panicking with a rollbackSignal
// that unwinds to the target Synchronized frame.
func (t *Task) deliverRevocation() {
	rt := t.rt
	req := t.revokeReq
	if req == nil {
		return
	}
	t.setRevokeReq(nil)
	idx := t.firstFrameOf(req.mon)
	if idx < 0 || t.frames[idx].monGen != req.monGen {
		return // stale: the section already committed
	}
	if nr, _ := req.mon.NonRevocable(); nr {
		rt.stats.RevocationsDenied++
		return // became non-revocable after the request
	}
	// Every monitor in the doomed span must actually be owned; a frame
	// whose monitor was released by Object.wait cannot be revoked (its
	// enclosing spans were marked non-revocable, so a valid request can
	// never reach this state — guard against stale ones).
	for i := idx; i < len(t.frames); i++ {
		if !t.frames[i].reentrant && !t.frames[i].elided && !t.frames[i].mon.HeldBy(t.th) {
			return
		}
	}
	delete(rt.waiting, t)

	target := t.frames[idx]
	// 1. Revert every update performed since the target acquisition.
	mark := target.logMark
	if rt.cfg.TrackDependencies {
		id := t.th.ID()
		t.log.Range(mark, func(e undo.Entry) { rt.spec.Unregister(e.Loc(), id) })
	}
	undone := t.log.RollbackTo(mark, rt.hp)
	if !rt.cfg.NoCosts && undone > 0 {
		t.th.Advance(simtime.Ticks(undone) * rt.cfg.CostUndoEntry)
		if t.tp != nil {
			// The undo replay itself is charged before the wasted-CPU delta
			// below is computed, so journaling it here keeps the profiler's
			// waste dimension identical to Stats.WastedTicks.
			t.tp.Tick(simtime.Ticks(undone) * rt.cfg.CostUndoEntry)
		}
	}
	// 2. Release the monitors acquired by the doomed span, innermost
	// first. Reentrant frames carry no ownership of their own.
	for i := len(t.frames) - 1; i >= idx; i-- {
		f := t.frames[i]
		if f.reentrant || f.elided {
			continue // no ownership of its own to release
		}
		f.mon.ForceRelease(t.th)
		if rt.cfg.PriorityCeiling || rt.cfg.PriorityInheritance {
			rt.unboost(t)
		}
	}
	// Retract the aborted attempt's access history in step with the undo
	// replay: rolled-back accesses never ground a race report. ForceRelease
	// deliberately published no release clock — JMM-wise the aborted section
	// never happened, so there is no synchronizes-with edge here.
	if d := rt.cfg.Race; d != nil {
		d.SectionRollback(t.th.ID(), idx)
	}
	if t.tp != nil {
		t.tp.SectionRollback(idx)
	}
	wasted := t.th.CPU() - target.startCPU
	t.rollbacks++
	rt.stats.Rollbacks++
	rt.stats.WastedTicks += wasted
	rt.sch.Emit(trace.Event{Kind: trace.Rollback, Thread: t.Name(), Object: req.mon.Name(), Other: req.requester,
		N: int64(wasted), Aux: int64(undone), Detail: req.reason})
	// 3. Transfer control back to the start of the section. frames are
	// popped by the unwinding Synchronized activations; record the attempt
	// count so retries can back off.
	t.frames[idx].attempts = target.attempts + 1
	panic(rollbackSignal{target: idx, reason: req.reason})
}

// ---------------------------------------------------------------------------
// Wait / notify (§2.2).

// Wait performs Object.wait on m. In a non-nested monitor the rollback
// horizon moves to the wait (footnote 2: releasing the monitor publishes
// the prefix); in a nested monitor all enclosing monitors become
// non-revocable, since revoking the wait would un-deliver a notification.
func (t *Task) Wait(m *monitor.Monitor) {
	if p := t.rt.cfg.Perturb; p != nil && p.Uncontended[m.Name()] {
		panic(fmt.Sprintf("core: whatif: Wait on %s, which runs under the zero-contention override — wait/notify needs real monitor ownership, so Perturb.Uncontended cannot apply to monitors used with Object.wait", m.Name()))
	}
	idx := t.firstFrameOf(m)
	if idx < 0 {
		panic(fmt.Sprintf("core: Wait on %s not owned by %s", m.Name(), t.Name()))
	}
	rt := t.rt
	t.YieldPoint() // deliver any pending revocation while still fully owning
	if len(t.frames) > 1 || t.frames[len(t.frames)-1].reentrant {
		t.markNonRevocable("wait in nested monitor")
	} else {
		// Non-nested: the monitor is about to be released, so the log
		// prefix becomes permanent.
		if t.log.Len() > 0 {
			if rt.cfg.TrackDependencies {
				id := t.th.ID()
				t.log.Range(0, func(e undo.Entry) { rt.spec.Unregister(e.Loc(), id) })
			}
			t.log.Truncate(0)
		}
	}
	if d := rt.cfg.Race; d != nil {
		// Whichever branch ran, no access made so far can be rolled back
		// anymore; and releasing m is a real release edge.
		d.WaitTruncate(t.th.ID())
		d.Release(t.th.ID(), m)
	}
	if t.tp != nil {
		t.tp.WaitTruncate()
	}
	rt.sch.Emit(trace.Event{Kind: trace.WaitStart, Thread: t.Name(), Object: m.Name()})
	waitedAt := rt.sch.Now()
	m.Wait(t.th, func() {
		if t.revokeReq != nil {
			t.deliverRevocation()
		}
	})
	if t.tp != nil {
		t.tp.BlockTick(rt.sch.Now()-waitedAt, m.Name())
	}
	// Re-acquired: the frame now covers a fresh ownership span. The paper
	// limits rollback to the wait point (footnote 2: "a potential rollback
	// will therefore not reach beyond the point when wait was called");
	// control cannot be transferred back into the middle of a section
	// whose pre-wait prefix is already committed, so the post-wait span
	// is conservatively made non-revocable instead — strictly fewer
	// revocations than the paper allows, never an unsound one (documented
	// as a substitution in DESIGN.md).
	if len(t.frames) == 1 && !t.frames[idx].reentrant {
		m.MarkNonRevocable("resume point after wait")
	}
	// The released-and-reacquired monitor span restarted clean, so any
	// cached non-revocability at or above this frame is stale.
	if t.nonRevBelow > idx {
		t.nonRevBelow = idx
	}
	f := &t.frames[idx]
	f.monGen = m.Gen()
	f.logMark = t.log.Mark()
	if d := rt.cfg.Race; d != nil {
		d.Acquire(t.th.ID(), m) // re-acquire joins the notifier's release
	}
	rt.sch.Emit(trace.Event{Kind: trace.WaitEnd, Thread: t.Name(), Object: m.Name()})
	if t.revokeReq != nil {
		t.deliverRevocation()
	}
}

// Notify wakes one waiter of m. Notifications are revocable: the JLS
// permits spurious wake-ups, so a rolled-back notify is indistinguishable
// from one (§2.2).
func (t *Task) Notify(m *monitor.Monitor) {
	if p := t.rt.cfg.Perturb; p != nil && p.Uncontended[m.Name()] {
		panic(fmt.Sprintf("core: whatif: Notify on %s, which runs under the zero-contention override — wait/notify needs real monitor ownership, so Perturb.Uncontended cannot apply to monitors used with Object.wait", m.Name()))
	}
	t.rt.sch.Emit(trace.Event{Kind: trace.Notify, Thread: t.Name(), Object: m.Name()})
	m.Notify(t.th)
}

// NotifyAll wakes all waiters of m.
func (t *Task) NotifyAll(m *monitor.Monitor) {
	if p := t.rt.cfg.Perturb; p != nil && p.Uncontended[m.Name()] {
		panic(fmt.Sprintf("core: whatif: NotifyAll on %s, which runs under the zero-contention override — wait/notify needs real monitor ownership, so Perturb.Uncontended cannot apply to monitors used with Object.wait", m.Name()))
	}
	t.rt.sch.Emit(trace.Event{Kind: trace.Notify, Thread: t.Name(), Object: m.Name(), Detail: "all"})
	m.NotifyAll(t.th)
}

// ---------------------------------------------------------------------------
// Deadlock detection & resolution.

// resolveDeadlock checks whether t blocking on m closes a waits-for cycle
// and, if so, revokes the best victim. Called with rt.waiting[t] = m
// already recorded.
func (rt *Runtime) resolveDeadlock(t *Task, m *monitor.Monitor) {
	cycle := rt.findCycle(t, m)
	if cycle == nil {
		return
	}
	rt.reportCycle(t, cycle)

	victim := rt.chooseVictim(cycle, t)
	if victim == nil {
		rt.sch.Emit(trace.Event{Kind: trace.RevokeDenied, Thread: t.Name(), Detail: "deadlock: no revocable victim"})
		return
	}
	if rt.requestRevocation(victim.task, victim.holds, "deadlock", t.Name()) {
		rt.stats.DeadlocksBroken++
		rt.sch.Emit(trace.Event{Kind: trace.DeadlockBroken, Thread: victim.task.Name(), Object: victim.holds.Name()})
	}
}

// reportCycle counts a detected waits-for cycle closed by t and traces it.
// The cycle's rendering is built only when a subscriber exists.
func (rt *Runtime) reportCycle(t *Task, cycle []cycleEdge) {
	rt.stats.DeadlocksDetected++
	if !rt.sch.Tracing() {
		return
	}
	names := make([]string, len(cycle))
	for i, c := range cycle {
		names[i] = c.task.Name() + "->" + c.holds.Name()
	}
	rt.sch.Emit(trace.Event{Kind: trace.DeadlockDetected, Thread: t.Name(), Detail: fmt.Sprint(names)})
}

// cycleEdge pairs a cycle member with the monitor it holds that its
// predecessor in the cycle wants.
type cycleEdge struct {
	task  *Task
	holds *monitor.Monitor
}

// DeadlockEdge is one member of a wait-for-graph cycle reported to the
// Config.OnDeadlock observer: Task holds Holds (acquired at HoldSite, a
// "method@pc" bytecode site) and is blocked trying to acquire WaitsFor at
// WaitSite.
type DeadlockEdge struct {
	Task     string
	Priority int
	Holds    string
	HoldSite string
	WaitsFor string
	WaitSite string
}

// lockSite renders the stamped bytecode site of the task's current monitor
// operation for cycle reports.
func (t *Task) lockSite() string {
	if t.lockMethod == "" {
		return "?"
	}
	return fmt.Sprintf("%s@%d", t.lockMethod, t.lockPC)
}

// observeWFG checks whether t blocking on m closes a waits-for cycle and,
// if so, reports it to the Config.OnDeadlock observer. Unlike
// resolveDeadlock it never picks a victim: the cycle is rendered with
// per-edge acquisition sites and left intact, so the run ends in the
// scheduler's all-blocked diagnosis. Called with rt.waiting[t] = m already
// recorded.
func (rt *Runtime) observeWFG(t *Task, m *monitor.Monitor) {
	cycle := rt.findCycle(t, m)
	if cycle == nil {
		return
	}
	rt.reportCycle(t, cycle)

	// cycle[i].task holds cycle[i].holds and waits for cycle[i+1].holds;
	// the last member is t itself, closing the ring on cycle[0].holds = m.
	edges := make([]DeadlockEdge, len(cycle))
	for i, c := range cycle {
		waits := cycle[(i+1)%len(cycle)].holds
		hold := c.task.acqSites[c.holds]
		if hold == "" {
			hold = "?"
		}
		edges[i] = DeadlockEdge{
			Task:     c.task.Name(),
			Priority: int(c.task.Priority()),
			Holds:    c.holds.Name(),
			HoldSite: hold,
			WaitsFor: waits.Name(),
			WaitSite: c.task.lockSite(),
		}
	}
	rt.cfg.OnDeadlock(edges)
}

// findCycle walks the waits-for chain starting at t blocked on m. It
// returns the cycle members (each with the monitor to revoke to free its
// predecessor), or nil when no cycle exists.
func (rt *Runtime) findCycle(t *Task, m *monitor.Monitor) []cycleEdge {
	var cycle []cycleEdge
	cur := m
	seen := map[*Task]bool{t: true}
	for {
		owner := cur.Owner()
		if owner == nil {
			return nil
		}
		ownerTask, ok := owner.Data.(*Task)
		if !ok {
			return nil
		}
		cycle = append(cycle, cycleEdge{task: ownerTask, holds: cur})
		if ownerTask == t {
			return cycle
		}
		if seen[ownerTask] {
			return nil // cycle not involving t; its members will find it
		}
		seen[ownerTask] = true
		next, waiting := rt.waiting[ownerTask]
		if !waiting || ownerTask.th.State() != sched.StateBlocked {
			return nil
		}
		cur = next
	}
}

// chooseVictim picks the cycle member to revoke: revocable sections only,
// lowest priority first, then fewest prior rollbacks (the livelock guard),
// then not the requester, then lowest thread id — a deterministic total
// order.
func (rt *Runtime) chooseVictim(cycle []cycleEdge, requester *Task) *cycleEdge {
	var best *cycleEdge
	for i := range cycle {
		c := &cycle[i]
		if nr, _ := c.holds.NonRevocable(); nr {
			continue
		}
		if idx := c.task.firstFrameOf(c.holds); idx < 0 {
			continue
		}
		if best == nil || victimLess(c, best, requester) {
			best = c
		}
	}
	return best
}

// victimLess reports whether a is a better victim than b.
func victimLess(a, b *cycleEdge, requester *Task) bool {
	if a.task.Priority() != b.task.Priority() {
		return a.task.Priority() < b.task.Priority()
	}
	if a.task.rollbacks != b.task.rollbacks {
		return a.task.rollbacks < b.task.rollbacks
	}
	if (a.task == requester) != (b.task == requester) {
		return b.task == requester
	}
	return a.task.th.ID() < b.task.th.ID()
}

// ---------------------------------------------------------------------------
// Periodic background detection (§1.1).

// scanForInversions scans every monitor for a waiter whose priority
// exceeds the deposited owner priority, requesting revocation when found.
func (rt *Runtime) scanForInversions() {
	for _, m := range rt.monitors {
		owner := m.Owner()
		if owner == nil {
			continue
		}
		w := m.HighestWaiter()
		if w == nil || w.Priority() <= m.OwnerPriority() {
			continue
		}
		ownerTask, ok := owner.Data.(*Task)
		if !ok {
			continue
		}
		rt.stats.Inversions++
		rt.sch.Emit(trace.Event{Kind: trace.InversionDetected, Thread: w.Name(), Object: m.Name(), Aux: int64(m.OwnerPriority()), Detail: "periodic-scan"})
		rt.requestRevocation(ownerTask, m, "priority-inversion", w.Name())
	}
}

// ---------------------------------------------------------------------------
// Priority boosting (inheritance / ceiling baselines).

// boostChain raises the owner of a contended monitor to priority p, and
// follows the waits-for chain so the boost is transitive, as priority
// inheritance requires.
func (rt *Runtime) boostChain(owner *Task, p sched.Priority) {
	for owner != nil && owner.th.Priority() < p {
		rt.sch.SetPriority(owner.th, p)
		next, ok := rt.waiting[owner]
		if !ok || next.Owner() == nil {
			return
		}
		nt, ok := next.Owner().Data.(*Task)
		if !ok {
			return
		}
		owner = nt
	}
}

// unboost recomputes t's effective priority after it released a monitor:
// its base priority, raised to any ceiling or highest waiter of monitors it
// still holds.
func (rt *Runtime) unboost(t *Task) {
	p := t.th.BasePriority()
	for _, f := range t.frames {
		if f.reentrant {
			continue
		}
		if rt.cfg.PriorityCeiling && f.mon.Ceiling > p {
			p = f.mon.Ceiling
		}
		if rt.cfg.PriorityInheritance {
			if w := f.mon.HighestWaiter(); w != nil && w.Priority() > p {
				p = w.Priority()
			}
		}
	}
	rt.sch.SetPriority(t.th, p)
}

// ---------------------------------------------------------------------------

// ErrNotOwner is returned by operations requiring monitor ownership.
var ErrNotOwner = errors.New("core: monitor not owned by caller")
