package sim

import "testing"

// TestCrashArmReturnsPrevious pins the re-arm contract the explorer relies
// on: arming is last-wins, and arming returns the previously armed event
// index (0 = none) so a harness stacking adversaries can see what it is
// replacing.
func TestCrashArmReturnsPrevious(t *testing.T) {
	s := New(1)
	if prev := s.CrashAtEvent(10); prev != 0 {
		t.Fatalf("first arm returned prev=%d, want 0", prev)
	}
	if prev := s.CrashAtEvent(5); prev != 10 {
		t.Fatalf("re-arm returned prev=%d, want 10", prev)
	}
	if prev := s.CrashAtEvent(s.Events() + 3); prev != 5 {
		t.Fatalf("relative re-arm returned prev=%d, want 5", prev)
	}
	if prev := s.CrashAtEvent(0); prev != 3 {
		t.Fatalf("disarming returned prev=%d, want 3", prev)
	}
	if prev := s.CrashAtEvent(7); prev != 0 {
		t.Fatalf("arm after disarm returned prev=%d, want 0", prev)
	}
	// Last-wins: the surviving arm is the latest one.
	s.CrashAtEvent(2)
	done := 0
	s.Spawn("w", 0, 0, func(th *Thread) {
		for i := 0; i < 10; i++ {
			th.Step(1)
			done++
		}
	})
	s.Run()
	if !s.Frozen() || done != 1 {
		t.Fatalf("last-wins arm: frozen=%v done=%d, want frozen after event 2 (1 completed step)", s.Frozen(), done)
	}
}

// Re-arming mid-run, relative to the events so far, reports the pending arm.
func TestCrashAfterMidRunReturnsAbsolutePrev(t *testing.T) {
	s := New(1)
	s.Spawn("w", 0, 0, func(th *Thread) {
		for i := 0; i < 4; i++ {
			th.Step(1)
		}
		s.CrashAtEvent(100)
		if prev := s.CrashAtEvent(s.Events() + 50); prev != 100 {
			t.Errorf("re-arm returned prev=%d, want 100", prev)
		}
		if s.Events() != 4 {
			t.Errorf("events=%d, want 4", s.Events())
		}
	})
	s.Run()
}

type chooserFunc func(caller int, cands []Candidate) int

func (f chooserFunc) Choose(caller int, cands []Candidate) int { return f(caller, cands) }

// TestChooserForcesSchedule: a chooser that always picks the highest-id
// candidate runs the threads in reverse spawn order, against the built-in
// rule's interleaving.
func TestChooserForcesSchedule(t *testing.T) {
	var order []int
	s := New(1)
	s.SetChooser(chooserFunc(func(caller int, cands []Candidate) int {
		for i := 1; i < len(cands); i++ {
			if cands[i].ID < cands[i-1].ID {
				t.Errorf("candidates not in ascending id order: %v", cands)
			}
		}
		return len(cands) - 1
	}))
	for id := 0; id < 3; id++ {
		id := id
		s.Spawn("w", 0, 0, func(th *Thread) {
			for i := 0; i < 3; i++ {
				th.Step(1)
				order = append(order, id)
			}
		})
	}
	s.Run()
	want := []int{2, 2, 2, 1, 1, 1, 0, 0, 0}
	if len(order) != len(want) {
		t.Fatalf("order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

// TestChooserMinClockMatchesDefault: a chooser that always answers with
// MinClock reproduces the built-in schedule exactly.
func TestChooserMinClockMatchesDefault(t *testing.T) {
	run := func(install bool) []int {
		var order []int
		s := New(7)
		if install {
			s.SetChooser(chooserFunc(func(caller int, cands []Candidate) int {
				return MinClock(cands)
			}))
		}
		for id := 0; id < 4; id++ {
			id := id
			s.Spawn("w", 0, 0, func(th *Thread) {
				for i := 0; i < 5; i++ {
					th.Step(uint64(1 + (id+i)%3))
					order = append(order, id)
				}
			})
		}
		s.Run()
		return order
	}
	def, chosen := run(false), run(true)
	if len(def) != len(chosen) {
		t.Fatalf("lengths differ: %d vs %d", len(def), len(chosen))
	}
	for i := range def {
		if def[i] != chosen[i] {
			t.Fatalf("schedules diverge at %d: default %v, chooser %v", i, def, chosen)
		}
	}
}
