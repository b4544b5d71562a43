package host

import (
	"testing"
	"time"
)

func TestGroupPolicyAIMD(t *testing.T) {
	p := newGroupPolicy(10 * time.Millisecond)
	if p.size() != commitGroupInitial {
		t.Fatalf("initial cap = %d, want %d", p.size(), commitGroupInitial)
	}

	// A saturated group well under target grows the cap by one.
	p.observe(p.size(), 3*time.Millisecond)
	if p.size() != commitGroupInitial+1 {
		t.Fatalf("cap after fast full group = %d, want %d", p.size(), commitGroupInitial+1)
	}

	// An unsaturated group, however fast, says nothing about the cap.
	p.observe(1, time.Millisecond)
	if p.size() != commitGroupInitial+1 {
		t.Fatalf("cap after fast partial group = %d, want unchanged %d", p.size(), commitGroupInitial+1)
	}

	// A group exactly at half target still grows; just over half does not.
	p.observe(p.size(), 5*time.Millisecond)
	if p.size() != commitGroupInitial+2 {
		t.Fatalf("cap after half-target group = %d, want %d", p.size(), commitGroupInitial+2)
	}
	p.observe(p.size(), 5*time.Millisecond+time.Microsecond)
	if p.size() != commitGroupInitial+2 {
		t.Fatalf("cap after just-over-half group = %d, want unchanged", p.size())
	}

	// Overrunning the target halves the cap (multiplicative decrease),
	// saturated or not.
	p.observe(1, 11*time.Millisecond)
	if p.size() != (commitGroupInitial+2)/2 {
		t.Fatalf("cap after overrun = %d, want %d", p.size(), (commitGroupInitial+2)/2)
	}

	// Repeated overruns bottom out at the floor, never zero.
	for i := 0; i < 20; i++ {
		p.observe(p.size(), time.Second)
	}
	if p.size() != commitGroupFloor {
		t.Fatalf("cap after sustained overrun = %d, want floor %d", p.size(), commitGroupFloor)
	}

	// Growth is additive and capped at the ceiling.
	for i := 0; i < 2*commitGroupCeiling; i++ {
		p.observe(p.size(), time.Millisecond)
	}
	if p.size() != commitGroupCeiling {
		t.Fatalf("cap after sustained fast groups = %d, want ceiling %d", p.size(), commitGroupCeiling)
	}
	p.observe(p.size(), time.Millisecond)
	if p.size() != commitGroupCeiling {
		t.Fatalf("cap grew past ceiling: %d", p.size())
	}
}

func TestGroupPolicyDefaultTarget(t *testing.T) {
	p := newGroupPolicy(0)
	if p.target != DefaultCommitLatencyTarget {
		t.Fatalf("target = %v, want default %v", p.target, DefaultCommitLatencyTarget)
	}
	if q := newGroupPolicy(-time.Second); q.target != DefaultCommitLatencyTarget {
		t.Fatalf("negative target = %v, want default", q.target)
	}
}

// A target below one fsync is how the per-batch-fsync configuration is
// expressed: every group overruns it, so the cap halves down to its floor
// of one record per fsync and stays there.
func TestGroupPolicySubFsyncTargetPinsCapToOne(t *testing.T) {
	p := newGroupPolicy(time.Nanosecond)
	for i := 0; i < 8; i++ {
		p.observe(p.size(), 50*time.Microsecond)
	}
	if p.size() != commitGroupFloor || commitGroupFloor != 1 {
		t.Fatalf("cap = %d (floor %d), want 1", p.size(), commitGroupFloor)
	}
}
