package analysis

import (
	"fmt"
	"sort"

	"repro/internal/bytecode"
)

// Permission-certified elision.
//
// Every optimization the runtime performs on the strength of a static fact
// — executing a store without its write barrier, pre-marking a section
// non-revocable at monitorenter, compiling the SAVESTACK of a dead
// re-execution snapshot to a no-op — is a proof obligation: performing it
// when the proof does not hold silently corrupts rollback. The consuming
// tiers therefore never act on raw fact fields; they demand a Certificate
// per (method, pc, kind) via RequireCert, and interp.NewEnv calls
// VerifyCertificates before any code runs, so a tampered or stale fact set
// is a hard load-time error instead of a miscompilation.
//
// Certificates are issued by a small permission system over two lattices:
//
//   - The held-region lattice orders program points by the monitors that
//     may frame them. A store at a point that no monitor can ever frame
//     (not inside any section, method not synchronized, never invoked
//     while held) holds the full write permission 1 outright: no undo log
//     can be active, so the barrier's logging branch is statically dead.
//
//   - The freshness lattice tracks permission from allocation. NEWOBJ and
//     NEWARR grant the allocating section the full permission 1 on the new
//     object; the permission fractures to a read share the moment the
//     reference may escape and is destroyed by any operation whose replay
//     on rollback could differ (monitor boundary, wait, native call,
//     non-monitor-free call, spawn). A store whose target still carries
//     permission 1 needs no per-slot undo entry: the allocation's
//     wholesale undo entry already restores the object.
//
// A statically non-revocable section holds a section-level certificate
// (its §2.2 trigger is the witness), and the SAVESTACK feeding such a
// section's re-execution snapshot inherits a dead-spill certificate: a
// section that can never roll back can never read the spilled stack back.

// CertKind names one class of discharged proof obligation.
type CertKind string

const (
	// CertElideBarrier certifies that the store at Pos may execute without
	// its write barrier: the permission pass granted the storing code the
	// full write permission on the target with no undo obligation.
	CertElideBarrier CertKind = "elide-barrier"
	// CertDeadSavestack certifies that the SAVESTACK at Pos is a dead
	// spill: the region it snapshots belongs to a statically non-revocable
	// section, so its RESTORESTACK is unreachable.
	CertDeadSavestack CertKind = "dead-savestack"
	// CertNonRevocable certifies the monitorenter pre-mark of a statically
	// non-revocable section (and the compiling tiers' specialized,
	// lookup-free entry sequence for it).
	CertNonRevocable CertKind = "non-revocable"
	// CertConfined certifies a whole-monitor elision site: the
	// MONITORENTER (or a MONITOREXIT paired with it) operates on a
	// thread-confined allocation that never escapes, never waits, and
	// brackets exactly, so both tiers compile the instruction to a
	// charge-only no-op (escape.go derives the sites).
	CertConfined CertKind = "confined-monitor"
	// CertRaceFree certifies per-slot race freedom: no candidate race and
	// no volatile bypass names the slot, so the dynamic race detector may
	// skip its vector-clock checks. The certificate carries the slot name
	// and anchors at the slot's first reachable access.
	CertRaceFree CertKind = "race-free"
)

// Certificate is one machine-checkable discharged obligation. Pos is the
// instruction the optimization applies to (the store, the SAVESTACK, or
// the MONITORENTER / synchronized-method entry).
type Certificate struct {
	Kind CertKind `json:"kind"`
	Pos  Pos      `json:"pos"`
	// Perm is the permission-lattice point that discharges the obligation:
	// "1/never-held", "1/fresh", "section/non-revocable",
	// "monitor/thread-confined" or "slot/race-free".
	Perm string `json:"perm"`
	// Evidence is the human-readable proof witness.
	Evidence string `json:"evidence,omitempty"`
	// Slot names the certified heap slot for race-free certificates.
	Slot string `json:"slot,omitempty"`
}

func (c *Certificate) String() string {
	return fmt.Sprintf("%s %v perm=%s", c.Kind, c.Pos, c.Perm)
}

type certKey struct {
	pos  Pos
	kind CertKind
}

const (
	permNeverHeld = "1/never-held"
	permFresh     = "1/fresh"
	permNonRev    = "section/non-revocable"
	permConfined  = "monitor/thread-confined"
	permRaceFree  = "slot/race-free"
)

// computePermissions issues one certificate per obligation the earlier
// passes created. It runs after discoverSections and computeElision.
func (f *Facts) computePermissions(d *derivation) {
	f.certAt = make(map[certKey]*Certificate)
	issue := func(c *Certificate) {
		k := certKey{c.Pos, c.Kind}
		if f.certAt[k] != nil {
			return
		}
		f.certAt[k] = c
		f.Certs = append(f.Certs, c)
	}

	for _, m := range f.prog.Methods {
		for pc := range m.Code {
			pos := Pos{m.Name, pc}
			if !f.elidable[pos] {
				continue
			}
			c := &Certificate{Kind: CertElideBarrier, Pos: pos}
			if f.neverHeld[pos] {
				c.Perm = permNeverHeld
				c.Evidence = "no monitor can frame this store: outside every section, method never runs held"
			} else {
				c.Perm = permFresh
				c.Evidence = "target holds write permission 1 from its in-section allocation; the allocation undo entry subsumes per-slot logging"
			}
			issue(c)
		}
	}

	for _, s := range f.Sections {
		if !s.NonRevocable {
			continue
		}
		c := &Certificate{Kind: CertNonRevocable, Pos: s.Enter, Perm: permNonRev}
		if len(s.Reasons) > 0 {
			c.Evidence = s.Reasons[0].String()
		}
		issue(c)
	}

	for _, m := range f.prog.Methods {
		for _, spc := range f.deadSavestackPCs(m) {
			issue(&Certificate{
				Kind: CertDeadSavestack, Pos: Pos{m.Name, spc}, Perm: permNonRev,
				Evidence: fmt.Sprintf("region section at %s@%d can never roll back; the spill is only read by its unreachable RESTORESTACK", m.Name, spc+2),
			})
		}
	}

	// Whole-monitor elision sites (escape.go): one certificate at the
	// enter and one at every paired exit, so each compiled no-op is
	// individually gated.
	enters := make([]Pos, 0, len(f.confined))
	for p := range f.confined {
		enters = append(enters, p)
	}
	sortPos(enters)
	for _, p := range enters {
		exits := f.confined[p]
		issue(&Certificate{
			Kind: CertConfined, Pos: p, Perm: permConfined,
			Evidence: fmt.Sprintf("thread-confined allocation: lock never escapes, never waits, brackets exactly; exit pcs %v", exits),
		})
		for _, epc := range exits {
			issue(&Certificate{
				Kind: CertConfined, Pos: Pos{p.Method, epc}, Perm: permConfined,
				Evidence: fmt.Sprintf("releases the confined monitorenter at %v", p),
			})
		}
	}

	// Race-free slots: confinement + lockset facts cover every reachable
	// access with no racy pair, so the dynamic detector may skip the slot.
	obls := f.raceFreeObligations(d)
	slots := make([]string, 0, len(obls))
	for s := range obls {
		slots = append(slots, s)
	}
	sort.Strings(slots)
	for _, slot := range slots {
		issue(&Certificate{
			Kind: CertRaceFree, Pos: obls[slot], Perm: permRaceFree, Slot: slot,
			Evidence: "no candidate race or volatile bypass names this slot over every thread-reachable access",
		})
	}
}

// deadSavestackPCs derives the dead-SAVESTACK obligation set of one method
// exactly as the opt tier's elidedSavestacks does: the SAVESTACK directly
// preceding a rollback region whose section is statically non-revocable.
// On a program analyzed before the rollback rewrite there are no regions
// and no obligations.
func (f *Facts) deadSavestackPCs(m *bytecode.Method) []int {
	var out []int
	for _, r := range m.Regions {
		if r.EnterPC+1 >= len(m.Code) {
			continue
		}
		s := f.sectionAt[Pos{m.Name, r.EnterPC + 1}]
		if s == nil || !s.NonRevocable {
			continue
		}
		spc := r.EnterPC - 1
		if spc < 0 || m.Code[spc].Op != bytecode.SAVESTACK {
			continue
		}
		out = append(out, spc)
	}
	return out
}

// CertAt returns the certificate discharging the given obligation, or nil.
func (f *Facts) CertAt(method string, pc int, kind CertKind) *Certificate {
	return f.certAt[certKey{Pos{method, pc}, kind}]
}

// RequireCert is the consuming tiers' gate: it returns nil when the
// obligation at (method, pc) is discharged and a hard error otherwise. An
// optimization whose RequireCert fails must not be performed.
func (f *Facts) RequireCert(method string, pc int, kind CertKind) error {
	if f.certAt[certKey{Pos{method, pc}, kind}] != nil {
		return nil
	}
	return fmt.Errorf("analysis: uncertified elision: no %s certificate at %s@%d", kind, method, pc)
}

// VerifyCertificates re-derives every proof obligation from the program
// and checks that the certificate set discharges it exactly: every
// obligation has a certificate at the permission the proof re-derives to,
// every certificate matches a live obligation, and every recorded
// non-revocability trigger names a real trigger instruction. interp.NewEnv
// calls it before executing anything, so flipping a fact field without
// re-running the analysis (a bogus or stale fact set) is a hard error.
func (f *Facts) VerifyCertificates() error {
	if f.prog == nil {
		return fmt.Errorf("analysis: facts carry no program; certificates cannot be checked")
	}
	// A fresh derivation: the gate solves every result again from the
	// program and never reads one Analyze produced.
	d := &derivation{f: f}
	want := make(map[certKey]string)

	for _, m := range f.prog.Methods {
		for pc, in := range m.Code {
			pos := Pos{m.Name, pc}
			if !f.elidable[pos] {
				continue
			}
			switch in.Op {
			case bytecode.PUTFIELD, bytecode.PUTFIELDRAW, bytecode.PUTSTATIC,
				bytecode.PUTSTATICRAW, bytecode.ASTORE, bytecode.ASTORERAW:
			default:
				return fmt.Errorf("analysis: elidable fact at %v names non-store instruction %v", pos, in.Op)
			}
			perm := permFresh
			if f.neverHeld[pos] {
				perm = permNeverHeld
			}
			want[certKey{pos, CertElideBarrier}] = perm
		}
	}

	for _, s := range f.Sections {
		if !s.NonRevocable {
			continue
		}
		if len(s.Reasons) == 0 {
			return fmt.Errorf("analysis: section %v marked non-revocable with no trigger; fact does not re-derive", s.Enter)
		}
		for _, r := range s.Reasons {
			if err := f.checkTrigger(r); err != nil {
				return err
			}
		}
		want[certKey{s.Enter, CertNonRevocable}] = permNonRev
	}

	for _, m := range f.prog.Methods {
		for _, spc := range f.deadSavestackPCs(m) {
			want[certKey{Pos{m.Name, spc}, CertDeadSavestack}] = permNonRev
		}
	}

	// Re-derive the whole-monitor elision sites from the program; a
	// tampered section list (a deleted or edited acquisition) shifts the
	// derivation and surfaces as a missing or stale certificate below.
	_, elide := f.escapeResults(d)
	for p, exits := range elide {
		want[certKey{p, CertConfined}] = permConfined
		for _, epc := range exits {
			want[certKey{Pos{p.Method, epc}, CertConfined}] = permConfined
		}
	}

	// Re-derive the race-free slot set; removing a race finding without
	// re-running the analysis creates an uncertified obligation here.
	slotAt := make(map[Pos]string)
	for slot, pos := range f.raceFreeObligations(d) {
		want[certKey{pos, CertRaceFree}] = permRaceFree
		slotAt[pos] = slot
	}
	for k, c := range f.certAt {
		if k.kind == CertRaceFree && c.Slot != slotAt[k.pos] {
			return fmt.Errorf("analysis: race-free certificate at %v names slot %q; obligation re-derives as %q", k.pos, c.Slot, slotAt[k.pos])
		}
	}

	for k, perm := range want {
		c := f.certAt[k]
		if c == nil {
			return fmt.Errorf("analysis: uncertified elision: %s obligation at %v has no certificate", k.kind, k.pos)
		}
		if c.Perm != perm {
			return fmt.Errorf("analysis: certificate %s at %v claims permission %q; obligation re-derives as %q", k.kind, k.pos, c.Perm, perm)
		}
	}
	for k := range f.certAt {
		if _, ok := want[k]; !ok {
			return fmt.Errorf("analysis: stale certificate: %s at %v matches no obligation in this program", k.kind, k.pos)
		}
	}
	return nil
}

// checkTrigger re-checks one recorded non-revocability trigger against the
// program: the instruction at the witness position must actually be a
// trigger of the recorded kind.
func (f *Facts) checkTrigger(r Reason) error {
	m, ok := f.prog.Method(r.Pos.Method)
	if !ok || r.Pos.PC < 0 || r.Pos.PC >= len(m.Code) {
		return fmt.Errorf("analysis: non-revocability trigger at %v: no such instruction", r.Pos)
	}
	in := m.Code[r.Pos.PC]
	valid := false
	switch r.Kind {
	case "native-call":
		valid = in.Op == bytecode.NATIVE
	case "volatile-read":
		switch in.Op {
		case bytecode.GETSTATIC:
			valid = in.A >= 0 && in.A < len(f.prog.Statics) && f.prog.Statics[in.A].Volatile
		case bytecode.GETFIELD:
			_, valid = f.volatileFieldIndices()[in.A]
		}
	case "nested-wait":
		valid = in.Op == bytecode.WAIT
	}
	if !valid {
		return fmt.Errorf("analysis: non-revocability trigger %q at %v does not re-derive from instruction %v", r.Kind, r.Pos, in.Op)
	}
	return nil
}
