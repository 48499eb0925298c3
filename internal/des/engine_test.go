package des

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestZeroValueReady(t *testing.T) {
	var e Engine
	ran := false
	if _, err := e.AtLabeled(1, "", func(*Engine) { ran = true }); err != nil {
		t.Fatalf("AtLabeled on zero value: %v", err)
	}
	e.Run()
	if !ran {
		t.Fatal("event did not fire")
	}
	if e.Now() != 1 {
		t.Fatalf("Now = %v, want 1", e.Now())
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	e := New()
	var got []float64
	for _, d := range []float64{5, 1, 3, 2, 4} {
		d := d
		after(e, d, func(en *Engine) { got = append(got, en.Now()) })
	}
	e.Run()
	if !sort.Float64sAreSorted(got) {
		t.Fatalf("events fired out of order: %v", got)
	}
	if len(got) != 5 {
		t.Fatalf("fired %d events, want 5", len(got))
	}
}

func TestFIFOTieBreaking(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		after(e, 7, func(*Engine) { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events fired in order %v, want FIFO", order)
		}
	}
}

func TestZeroDelayFiresAfterCurrentInstant(t *testing.T) {
	e := New()
	var order []string
	after(e, 1, func(en *Engine) {
		order = append(order, "first")
		after(en, 0, func(*Engine) { order = append(order, "nested") })
	})
	after(e, 1, func(*Engine) { order = append(order, "second") })
	e.Run()
	want := []string{"first", "second", "nested"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestNegativeDelayRejected(t *testing.T) {
	e := New()
	after(e, 2, func(*Engine) {})
	e.Run()
	if _, err := e.AtLabeled(1, "", func(*Engine) {}); err == nil {
		t.Fatal("time before now accepted")
	}
	if _, err := e.AtLabeled(math.NaN(), "", func(*Engine) {}); err == nil {
		t.Fatal("NaN time accepted")
	}
	if _, err := New().AtSlot(-0.5, "", func(*Engine) {}, 3); err == nil {
		t.Fatal("past absolute time accepted")
	}
}

func TestNilHandlerRejected(t *testing.T) {
	e := New()
	if _, err := e.AtLabeled(1, "", nil); err == nil {
		t.Fatal("nil handler accepted")
	}
}

func TestStop(t *testing.T) {
	e := New()
	fired := 0
	after(e, 1, func(en *Engine) { fired++; en.Stop() })
	after(e, 2, func(*Engine) { fired++ })
	e.Run()
	if fired != 1 {
		t.Fatalf("fired = %d after Stop, want 1", fired)
	}
	e.Run() // resumes
	if fired != 2 {
		t.Fatalf("fired = %d after resume, want 2", fired)
	}
}

func TestChainedScheduling(t *testing.T) {
	e := New()
	count := 0
	var tick Handler
	tick = func(en *Engine) {
		count++
		if count < 100 {
			after(en, 0.5, tick)
		}
	}
	after(e, 0.5, tick)
	e.Run()
	if count != 100 {
		t.Fatalf("count = %d, want 100", count)
	}
	if math.Abs(e.Now()-50) > 1e-9 {
		t.Fatalf("Now = %v, want 50", e.Now())
	}
	if e.Fired() != 100 {
		t.Fatalf("Fired = %d, want 100", e.Fired())
	}
}

func TestDeterminism(t *testing.T) {
	run := func(seed int64) []float64 {
		rng := rand.New(rand.NewSource(seed))
		e := New()
		var trace []float64
		for i := 0; i < 500; i++ {
			after(e, rng.Float64()*100, func(en *Engine) {
				trace = append(trace, en.Now())
			})
		}
		e.Run()
		return trace
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Property: for any set of non-negative delays, the engine fires exactly one
// event per schedule and the observed fire times are the sorted delays.
func TestPropertyFireTimesAreSortedDelays(t *testing.T) {
	f := func(raw []float64) bool {
		e := New()
		var want []float64
		for _, d := range raw {
			d = math.Abs(d)
			if math.IsNaN(d) || math.IsInf(d, 0) {
				continue
			}
			want = append(want, d)
			after(e, d, func(*Engine) {})
		}
		var got []float64
		for e.step() {
			got = append(got, e.Now())
		}
		sort.Float64s(want)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: every event carries the slot it was scheduled with, and
// FiringSlot reads it back while the handler runs, whatever order the heap
// fires the events in.
func TestPropertySlotsReadBack(t *testing.T) {
	f := func(delays []uint8) bool {
		e := New()
		ok := true
		h := func(en *Engine) {
			slot := en.FiringSlot()
			if float64(delays[slot]) != en.Now() {
				ok = false
			}
		}
		for i, d := range delays {
			if _, err := e.AtSlot(float64(d), "", h, uint32(i)); err != nil {
				return false
			}
		}
		e.Run()
		return ok && e.Fired() == uint64(len(delays))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// EventIDs are the engine's sequence numbers: consecutive, never zero, and
// the same through AtLabeled and AtSlot.
func TestEventIDsAreSequenceNumbers(t *testing.T) {
	e := New()
	h := func(*Engine) {}
	for want := EventID(1); want <= 5; want++ {
		var id EventID
		var err error
		if want%2 == 0 {
			id, err = e.AtSlot(1, "", h, uint32(want))
		} else {
			id, err = e.AtLabeled(1, "", h)
		}
		if err != nil || id != want {
			t.Fatalf("event %d got id %d (err %v)", want, id, err)
		}
	}
	if e.Seq() != 5 {
		t.Fatalf("Seq = %d, want 5", e.Seq())
	}
}

func BenchmarkScheduleAndFire(b *testing.B) {
	e := New()
	h := func(*Engine) {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		after(e, float64(i%97)*0.001, h)
		if i%64 == 63 {
			for e.step() {
			}
		}
	}
	for e.step() {
	}
}

func BenchmarkHotLoop(b *testing.B) {
	// Self-rescheduling event chain: the dominant pattern in the array
	// simulator (request completion scheduling the next service).
	e := New()
	n := 0
	var tick Handler
	tick = func(en *Engine) {
		n++
		if n < b.N {
			after(en, 0.001, tick)
		}
	}
	after(e, 0.001, tick)
	b.ResetTimer()
	e.Run()
}

func TestRunGuardedDetectsStall(t *testing.T) {
	e := New()
	// A handler that reschedules itself with zero delay forever: virtual
	// time never advances, so an unguarded Run would spin indefinitely.
	var spin Handler
	spin = func(en *Engine) { after(en, 0, spin) }
	after(e, 1, spin)
	err := e.RunGuarded(1000)
	if err == nil {
		t.Fatal("expected watchdog error for zero-delay self-rescheduling loop")
	}
	if e.Now() != 1 {
		t.Fatalf("clock should be pinned at the stall instant, got %v", e.Now())
	}
}

func TestRunGuardedPassesHealthyLoop(t *testing.T) {
	e := New()
	n := 0
	var tick Handler
	tick = func(en *Engine) {
		n++
		if n < 5000 {
			after(en, 0.001, tick)
		}
	}
	after(e, 0.001, tick)
	if err := e.RunGuarded(10); err != nil {
		t.Fatalf("healthy advancing loop tripped the watchdog: %v", err)
	}
	if n != 5000 {
		t.Fatalf("fired %d of 5000 events", n)
	}
}

func TestRunGuardedAllowsBoundedBursts(t *testing.T) {
	e := New()
	fired := 0
	for i := 0; i < 50; i++ {
		after(e, 1, func(*Engine) { fired++ }) // same-instant burst
	}
	if err := e.RunGuarded(100); err != nil {
		t.Fatalf("burst below the limit tripped the watchdog: %v", err)
	}
	if fired != 50 {
		t.Fatalf("fired %d of 50", fired)
	}
}

func TestRunGuardedZeroLimitRejected(t *testing.T) {
	if err := New().RunGuarded(0); err == nil {
		t.Fatal("expected error for zero stall limit")
	}
}

// after schedules h d seconds from now, panicking on a rejected time.
func after(e *Engine, d float64, h Handler) EventID {
	return afterLabeled(e, d, "", h)
}

// afterLabeled is after with a tracer label.
func afterLabeled(e *Engine, d float64, label string, h Handler) EventID {
	id, err := e.AtLabeled(e.Now()+d, label, h)
	if err != nil {
		panic(err)
	}
	return id
}
