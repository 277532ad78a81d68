package core

import (
	"repro/internal/simtime"
)

// This file is the what-if cost-perturbation hook (Config.Perturb): the
// runtime half of the causal profiler (internal/causal). Because the VM is
// deterministic in virtual time, a re-execution under a perturbed cost
// model is not an estimate — it is the exact program the perturbation
// describes, and the clock delta against the baseline run is the exact
// virtual speedup of the corresponding optimization. Three perturbations
// cover the optimizations the critical-path report can recommend:
//
//   - Scale: "what if the work at this (method, pc) site were k× cheaper?"
//   - Uncontended: "what if this monitor were never contended?"
//   - NoRevoke: "what if revocation were disabled for this monitor?"
//
// A nil Perturb adds no cost (the same contract as Race/Observer/Profiler:
// every hook sits behind a nil check), and an empty Perturb is
// behaviorally identical to nil — the zero-perturbation replay property
// the causal package pins tick-for-tick.

// Site names a bytecode site: the method and pc the interpreter stamps via
// the profiler mirror (SetProfSite/ProfPush). Site-scaled runs therefore
// need Config.Profiler attached; rvmrun -whatif attaches one automatically.
type Site struct {
	Method string
	PC     int
}

// Ratio is an exact rational scale factor. Scaled charges accumulate the
// remainder per site, so total scaled ticks equal floor(total·Num/Den)
// regardless of how the charges were split — deterministic, and immune to
// drift across re-executions.
type Ratio struct {
	Num, Den int64
}

// Perturb is the cost-perturbation configuration for one what-if
// re-execution.
type Perturb struct {
	// Scale multiplies Work charges at matching sites by Num/Den with
	// per-site remainder accumulation. Only the modeled computation (the
	// bytecode `work` operator and Go-level Task.Work) is scaled; barrier,
	// logging and undo charges are untouched, so "make this loop 2×
	// faster" leaves the synchronization cost model alone. Per-instruction
	// charges and the write charge of an elided (raw) store go through
	// Task.Step and are never scaled, on every execution tier.
	Scale map[Site]Ratio

	// Uncontended names monitors executed under the zero-contention
	// override: monitorenter/exit on them elide acquisition entirely — no
	// queueing, no blocking, no ownership, no revocation — while write
	// barriers, undo logging and every tick charge inside the section stay
	// exactly as in the baseline. The run answers "how many ticks does
	// making this monitor uncontended buy". Monitors used with
	// Object.wait/notify cannot be elided (waiting requires real
	// ownership); Wait/Notify on one panics with a clear message.
	Uncontended map[string]bool

	// NoRevoke names monitors pinned non-revocable at creation, exactly as
	// a static pre-mark would: revocation requests against them are denied
	// and their sections run without undo logging — the per-monitor
	// ablation of the paper's mechanism.
	NoRevoke map[string]bool
}

// active reports whether any perturbation is configured; an empty Perturb
// behaves identically to nil.
func (p *Perturb) active() bool {
	return p != nil && (len(p.Scale) > 0 || len(p.Uncontended) > 0 || len(p.NoRevoke) > 0)
}

// scaleWork applies Perturb.Scale to one Work charge. applied is false when
// the current site has no scale entry (the charge passes through).
func (rt *Runtime) scaleWork(t *Task, n simtime.Ticks) (scaled simtime.Ticks, applied bool) {
	fn, pc := t.tp.Site()
	key := Site{Method: fn, PC: pc}
	r, ok := rt.cfg.Perturb.Scale[key]
	if !ok || r.Den <= 0 || r.Num < 0 {
		return n, false
	}
	if rt.scaleRem == nil {
		rt.scaleRem = make(map[Site]int64)
	}
	acc := int64(n)*r.Num + rt.scaleRem[key]
	rt.scaleRem[key] = acc % r.Den
	return simtime.Ticks(acc / r.Den), true
}
