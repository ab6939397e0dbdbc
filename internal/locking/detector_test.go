package locking

import (
	"errors"
	"testing"

	"weihl83/internal/cc"
	"weihl83/internal/histories"
)

func TestDetectorNoCycleNoDoom(t *testing.T) {
	d := NewDetector()
	d.Register("a", 1)
	d.Register("b", 2)
	if err := d.SetWaiting("a", ids("b")); err != nil {
		t.Errorf("SetWaiting with no cycle doomed the waiter: %v", err)
	}
	if d.Doomed("a") != nil || d.Doomed("b") != nil {
		t.Error("doomed without a cycle")
	}
}

func TestDetectorTwoCycleVictimIsYoungest(t *testing.T) {
	d := NewDetector()
	d.Register("a", 1)
	d.Register("b", 2)
	if err := d.SetWaiting("a", ids("b")); err != nil {
		t.Fatalf("a doomed: %v", err)
	}
	err := d.SetWaiting("b", ids("a"))
	if !errors.Is(err, cc.ErrDeadlock) {
		t.Fatalf("b (youngest) not doomed: %v", err)
	}
	if d.Doomed("a") != nil {
		t.Error("oldest transaction doomed")
	}
}

func TestDetectorThreeCycle(t *testing.T) {
	d := NewDetector()
	d.Register("a", 1)
	d.Register("b", 2)
	d.Register("c", 3)
	if err := d.SetWaiting("a", ids("b")); err != nil {
		t.Fatal(err)
	}
	if err := d.SetWaiting("b", ids("c")); err != nil {
		t.Fatal(err)
	}
	// Closing the cycle dooms c (youngest), even though c is the waiter.
	err := d.SetWaiting("c", ids("a"))
	if !errors.Is(err, cc.ErrDeadlock) {
		t.Fatalf("cycle not detected: %v", err)
	}
	if d.Doomed("a") != nil || d.Doomed("b") != nil {
		t.Error("non-victims doomed")
	}
}

func TestDetectorVictimElsewhereInCycle(t *testing.T) {
	d := NewDetector()
	d.Register("a", 1)
	d.Register("b", 9) // youngest
	if err := d.SetWaiting("b", ids("a")); err != nil {
		t.Fatal(err)
	}
	// a closes the cycle; the victim must be b, not the waiter a.
	if err := d.SetWaiting("a", ids("b")); err != nil {
		t.Fatalf("waiter doomed although it is the oldest: %v", err)
	}
	if !errors.Is(d.Doomed("b"), cc.ErrDeadlock) {
		t.Error("youngest not doomed")
	}
}

func TestDetectorBroadcastOnDoom(t *testing.T) {
	d := NewDetector()
	called := 0
	d.RegisterWake(func(histories.ActivityID) { called++ })
	d.Register("a", 1)
	d.Register("b", 2)
	if err := d.SetWaiting("a", ids("b")); err != nil {
		t.Fatal(err)
	}
	if called != 0 {
		t.Error("wake hook fired without a doom")
	}
	_ = d.SetWaiting("b", ids("a"))
	if called == 0 {
		t.Error("wake hook did not fire on doom")
	}
	d.Doom("a", cc.ErrDoomed)
	if called < 2 {
		t.Error("explicit Doom did not fire the wake hook")
	}
	if !errors.Is(d.Doomed("a"), cc.ErrDoomed) {
		t.Error("explicit doom reason lost")
	}
}

func TestDetectorForgetClears(t *testing.T) {
	d := NewDetector()
	d.Register("a", 1)
	d.Doom("a", cc.ErrDoomed)
	d.Forget("a")
	if d.Doomed("a") != nil {
		t.Error("Forget did not clear doom")
	}
}

func TestDetectorDoomedEdgesIgnored(t *testing.T) {
	d := NewDetector()
	d.Register("a", 1)
	d.Register("b", 2)
	d.Register("c", 3)
	d.Doom("b", cc.ErrDoomed)
	// a waits for doomed b, which "waits" for a — but b's edges are dead.
	if err := d.SetWaiting("b", ids("a")); !errors.Is(err, cc.ErrDoomed) {
		t.Errorf("doomed waiter SetWaiting = %v", err)
	}
	if err := d.SetWaiting("a", ids("b")); err != nil {
		t.Errorf("cycle through doomed transaction treated as live: %v", err)
	}
}

// ids builds an ActivityID slice from string literals.
func ids(ss ...string) []histories.ActivityID {
	out := make([]histories.ActivityID, len(ss))
	for i, s := range ss {
		out[i] = histories.ActivityID(s)
	}
	return out
}
