package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine(1)
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", e.Pending())
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
	e.RunAll()
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("Now() = %v, want 30", e.Now())
	}
}

func TestSimultaneousEventsFireInScheduleOrder(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { order = append(order, i) })
	}
	e.RunAll()
	for i := 0; i < 10; i++ {
		if order[i] != i {
			t.Fatalf("order = %v, want ascending schedule order", order)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	e := NewEngine(1)
	var at Time
	e.At(100, func() {
		e.After(50, func() { at = e.Now() })
	})
	e.RunAll()
	if at != 150 {
		t.Fatalf("nested After fired at %v, want 150", at)
	}
}

func TestPastSchedulingClampsToNow(t *testing.T) {
	e := NewEngine(1)
	var at Time = -1
	e.At(100, func() {
		e.At(10, func() { at = e.Now() }) // in the past
	})
	e.RunAll()
	if at != 100 {
		t.Fatalf("past event fired at %v, want clamp to 100", at)
	}
}

func TestCancelPreventsFiring(t *testing.T) {
	e := NewEngine(1)
	fired := false
	id := e.At(10, func() { fired = true })
	e.Cancel(id)
	e.RunAll()
	if fired {
		t.Fatal("cancelled event fired")
	}
	// Cancelling again must not panic.
	e.Cancel(id)
	e.Cancel(EventID{})
}

func TestRunStopsAtDeadline(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		e.At(at, func() { fired = append(fired, at) })
	}
	e.Run(25)
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 20 {
		t.Fatalf("fired = %v, want [10 20]", fired)
	}
	if e.Now() != 25 {
		t.Fatalf("Now() = %v, want 25 (advanced to deadline)", e.Now())
	}
	e.Run(100)
	if len(fired) != 4 {
		t.Fatalf("fired = %v, want all 4 after second Run", fired)
	}
}

func TestRunFiresEventExactlyAtDeadline(t *testing.T) {
	e := NewEngine(1)
	fired := false
	e.At(25, func() { fired = true })
	e.Run(25)
	if !fired {
		t.Fatal("event at deadline did not fire")
	}
}

func TestFiredCounter(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 7; i++ {
		e.At(Time(i), func() {})
	}
	e.RunAll()
	if e.Fired() != 7 {
		t.Fatalf("Fired() = %d, want 7", e.Fired())
	}
}

func TestDeterministicRand(t *testing.T) {
	a, b := NewEngine(42), NewEngine(42)
	for i := 0; i < 100; i++ {
		if a.Rand().Int63() != b.Rand().Int63() {
			t.Fatal("same seed produced different random streams")
		}
	}
}

func TestNegativeAfterClamps(t *testing.T) {
	e := NewEngine(1)
	var at Time = -1
	e.At(50, func() {
		e.After(-10, func() { at = e.Now() })
	})
	e.RunAll()
	if at != 50 {
		t.Fatalf("negative After fired at %v, want 50", at)
	}
}

// Property: for any set of non-negative delays, events fire in
// non-decreasing time order and the clock never goes backwards.
func TestPropertyMonotonicClock(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine(7)
		var last Time = -1
		ok := true
		for _, d := range delays {
			e.At(Time(d), func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
			})
		}
		e.RunAll()
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{5, "5ns"},
		{2500, "2.500us"},
		{3 * Millisecond, "3.000ms"},
		{2 * Second, "2.000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestSecondsConversion(t *testing.T) {
	if got := (500 * Millisecond).Seconds(); got != 0.5 {
		t.Fatalf("Seconds() = %v, want 0.5", got)
	}
	if got := (2 * Microsecond).Micros(); got != 2 {
		t.Fatalf("Micros() = %v, want 2", got)
	}
}

func TestCancelAfterFireIsInert(t *testing.T) {
	// Regression test for the pooled free list: an EventID retained past
	// its event's firing must not cancel the event that reuses the struct.
	e := NewEngine(1)
	stale := e.At(5, func() {})
	e.RunAll() // fires and recycles the event struct

	fired := false
	fresh := e.At(7, func() { fired = true })
	if fresh.ev != stale.ev {
		t.Skip("free list did not reuse the struct; nothing to regress")
	}
	e.Cancel(stale) // stale generation: must be a no-op
	e.RunAll()
	if !fired {
		t.Fatal("stale Cancel killed a later event reusing the pooled struct")
	}
}

func TestCancelAfterCancelIsInert(t *testing.T) {
	// Same property for the cancel path: a cancelled (never fired) event is
	// recycled when popped, and its old ID must then be inert.
	e := NewEngine(1)
	stale := e.At(5, func() {})
	e.Cancel(stale)
	e.RunAll() // pops the dead event and recycles it

	fired := false
	fresh := e.At(7, func() { fired = true })
	if fresh.ev != stale.ev {
		t.Skip("free list did not reuse the struct; nothing to regress")
	}
	e.Cancel(stale)
	e.RunAll()
	if !fired {
		t.Fatal("doubly-cancelled ID killed a later event reusing the struct")
	}
}

func TestFreeListReusesStructs(t *testing.T) {
	e := NewEngine(1)
	for round := 0; round < 3; round++ {
		for i := 0; i < 100; i++ {
			e.After(Duration(i), func() {})
		}
		e.RunAll()
	}
	if len(e.free) != 100 {
		t.Fatalf("free list holds %d structs, want 100", len(e.free))
	}
}
