package analysis

import (
	"strings"
	"testing"
)

// permSrc has one of everything the permission pass certifies: a
// never-held store (outside every section), a fresh in-section store
// (allocation inside the section), and a non-revocable section (native
// call trigger).
const permSrc = `
class Lock {
    unused
}
class Box {
    v
}
static L
static g = 0
method main locals 2 {
    newobj Lock
    putstatic L
    const 1
    putstatic g
    getstatic L
    store 0
    sync 0 {
        newobj Box
        store 1
        load 1
        const 7
        putfield Box.v
        const 1
        native log 1
        pop
    }
    return
}
`

// TestCertificatesIssued: every elidable store and every non-revocable
// section carries a certificate at the right permission-lattice point,
// reachable through CertAt and RequireCert.
func TestCertificatesIssued(t *testing.T) {
	f := analyze(t, permSrc)
	if len(f.Certs) == 0 {
		t.Fatal("no certificates issued")
	}
	var barriers, nonrev int
	for _, c := range f.Certs {
		switch c.Kind {
		case CertElideBarrier:
			barriers++
			if c.Perm != permNeverHeld && c.Perm != permFresh {
				t.Errorf("barrier cert %v has perm %q", c.Pos, c.Perm)
			}
			if f.CertAt(c.Pos.Method, c.Pos.PC, CertElideBarrier) != c {
				t.Errorf("CertAt does not find %v", c)
			}
			if err := f.RequireCert(c.Pos.Method, c.Pos.PC, CertElideBarrier); err != nil {
				t.Errorf("RequireCert(%v) = %v", c.Pos, err)
			}
		case CertNonRevocable:
			nonrev++
			if c.Perm != permNonRev {
				t.Errorf("non-revocable cert %v has perm %q", c.Pos, c.Perm)
			}
		}
	}
	if barriers == 0 || nonrev == 0 {
		t.Fatalf("certs missing a kind: %d barriers, %d non-revocable (%v)", barriers, nonrev, f.Certs)
	}
	if err := f.RequireCert("main", 9999, CertElideBarrier); err == nil {
		t.Fatal("RequireCert at a pc with no obligation succeeded")
	} else if !strings.Contains(err.Error(), "uncertified elision") {
		t.Fatalf("RequireCert error = %v, want uncertified-elision", err)
	}
	if err := f.VerifyCertificates(); err != nil {
		t.Fatalf("fresh facts fail verification: %v", err)
	}
}

// TestVerifyCatchesTampering: every way of flipping a public fact field
// without re-running the analysis is a hard VerifyCertificates error —
// the gate interp.NewEnv and rvmlint apply.
func TestVerifyCatchesTampering(t *testing.T) {
	nonRevIdx := func(f *Facts) int {
		for i, s := range f.Sections {
			if s.NonRevocable {
				return i
			}
		}
		t.Fatal("no non-revocable section in fixture")
		return -1
	}

	t.Run("revocable flipped non-revocable", func(t *testing.T) {
		f := analyze(t, `
class Lock {
    unused
}
static L
method main locals 1 {
    newobj Lock
    putstatic L
    getstatic L
    store 0
    sync 0 {
        nop
    }
    return
}
`)
		if len(f.Sections) != 1 || f.Sections[0].NonRevocable {
			t.Fatalf("fixture sections = %+v", f.Sections)
		}
		f.Sections[0].NonRevocable = true
		err := f.VerifyCertificates()
		if err == nil || !strings.Contains(err.Error(), "no trigger") {
			t.Fatalf("tampered facts verified: %v", err)
		}
	})

	t.Run("non-revocable flipped revocable", func(t *testing.T) {
		f := analyze(t, permSrc)
		f.Sections[nonRevIdx(f)].NonRevocable = false
		err := f.VerifyCertificates()
		if err == nil || !strings.Contains(err.Error(), "stale certificate") {
			t.Fatalf("tampered facts verified: %v", err)
		}
	})

	t.Run("fabricated trigger", func(t *testing.T) {
		f := analyze(t, permSrc)
		s := f.Sections[nonRevIdx(f)]
		s.Reasons[0].Pos = Pos{"main", 0} // a NEWOBJ, not a native call
		err := f.VerifyCertificates()
		if err == nil || !strings.Contains(err.Error(), "does not re-derive") {
			t.Fatalf("fabricated trigger verified: %v", err)
		}
	})

	t.Run("forged certificate", func(t *testing.T) {
		f := analyze(t, permSrc)
		forged := &Certificate{Kind: CertElideBarrier, Pos: Pos{"main", 0}, Perm: permNeverHeld}
		f.certAt[certKey{forged.Pos, forged.Kind}] = forged
		f.Certs = append(f.Certs, forged)
		err := f.VerifyCertificates()
		if err == nil || !strings.Contains(err.Error(), "stale certificate") {
			t.Fatalf("forged certificate verified: %v", err)
		}
	})

	t.Run("race finding deleted", func(t *testing.T) {
		f := analyze(t, `
static count = 0
thread T1 priority 5 run bump
thread T2 priority 5 run bump
method bump locals 0 {
    getstatic count
    const 1
    add
    putstatic count
    return
}
`)
		if len(f.Races) != 1 {
			t.Fatalf("fixture races = %+v", f.Races)
		}
		if err := f.VerifyCertificates(); err != nil {
			t.Fatalf("fresh facts fail verification: %v", err)
		}
		f.Races = nil
		err := f.VerifyCertificates()
		if err == nil || !strings.Contains(err.Error(), "uncertified elision") || !strings.Contains(err.Error(), string(CertRaceFree)) {
			t.Fatalf("deleted race finding verified: %v", err)
		}
	})

	t.Run("confined certificate forged", func(t *testing.T) {
		f := analyze(t, permSrc)
		var enter *Section
		for _, s := range f.Sections {
			if !s.SyncMethod {
				enter = s
			}
		}
		if enter == nil {
			t.Fatal("no monitorenter section in fixture")
		}
		if _, ok := f.ConfinedExits(enter.Enter.Method, enter.Enter.PC); ok {
			t.Fatalf("fixture enter %v is an elision site", enter.Enter)
		}
		forged := &Certificate{Kind: CertConfined, Pos: enter.Enter, Perm: permConfined}
		f.certAt[certKey{forged.Pos, forged.Kind}] = forged
		f.Certs = append(f.Certs, forged)
		err := f.VerifyCertificates()
		if err == nil || !strings.Contains(err.Error(), "stale certificate") {
			t.Fatalf("forged confined certificate verified: %v", err)
		}
	})

	t.Run("permission downgraded", func(t *testing.T) {
		f := analyze(t, permSrc)
		var tampered bool
		for _, c := range f.Certs {
			if c.Kind == CertElideBarrier && c.Perm == permFresh {
				c.Perm = permNeverHeld
				tampered = true
				break
			}
		}
		if !tampered {
			t.Fatal("no fresh-target certificate in fixture")
		}
		err := f.VerifyCertificates()
		if err == nil || !strings.Contains(err.Error(), "re-derives") {
			t.Fatalf("permission tampering verified: %v", err)
		}
	})
}
