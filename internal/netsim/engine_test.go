package netsim

import (
	"math/rand"
	"sort"
	"testing"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("execution order %v", got)
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %v", e.Now())
	}
}

func TestEngineFIFOAtEqualTimes(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		// AtRank shares At's sequence: attribution never reorders ties.
		if i%3 == 0 {
			e.AtRank(i%4, 5, func() { got = append(got, i) })
			continue
		}
		e.At(5, func() { got = append(got, i) })
	}
	e.Run()
	if len(got) != 10 {
		t.Fatalf("ran %d of 10 equal-time events", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("equal-time events ran out of order: %v", got)
		}
	}
}

func TestEngineAfterNesting(t *testing.T) {
	e := NewEngine()
	var fired []VTime
	e.At(10, func() {
		e.After(5, func() { fired = append(fired, e.Now()) })
	})
	e.Run()
	if len(fired) != 1 || fired[0] != 15 {
		t.Fatalf("nested After fired at %v", fired)
	}
}

func TestEngineSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for past scheduling")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

func TestEngineNegativeDelayPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("expected panic for negative delay")
		}
	}()
	e.After(-1, func() {})
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	n := 0
	for i := 1; i <= 10; i++ {
		e.At(VTime(i), func() { n++ })
	}
	ok := e.RunUntil(func() bool { return n >= 4 })
	if !ok || n != 4 {
		t.Fatalf("RunUntil stopped at n=%d ok=%v", n, ok)
	}
	if e.Pending() != 6 || e.Processed() != 4 {
		t.Fatalf("Pending = %d, Processed = %d; want 6, 4", e.Pending(), e.Processed())
	}
	if ok := e.RunUntil(func() bool { return n >= 100 }); ok {
		t.Fatal("RunUntil claimed success on unreachable predicate")
	}
	if n != 10 {
		t.Fatalf("queue not drained, n=%d", n)
	}
}

func TestEngineRunFor(t *testing.T) {
	e := NewEngine()
	var fired []VTime
	for _, at := range []VTime{5, 10, 15, 20} {
		at := at
		e.At(at, func() { fired = append(fired, at) })
	}
	e.RunFor(12)
	if len(fired) != 2 {
		t.Fatalf("RunFor(12) fired %v", fired)
	}
	if e.Now() != 12 {
		t.Fatalf("Now = %v after RunFor, want 12", e.Now())
	}
	e.RunFor(8)
	if len(fired) != 4 {
		t.Fatalf("second RunFor fired %v", fired)
	}
}

func TestEngineDeterministicUnderRandomInsertion(t *testing.T) {
	run := func(seed int64) []int {
		e := NewEngine()
		rng := rand.New(rand.NewSource(seed))
		var got []int
		for i := 0; i < 200; i++ {
			i := i
			e.At(VTime(rng.Intn(50)), func() { got = append(got, i) })
		}
		e.Run()
		return got
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different schedules")
		}
	}
	// And timestamps must be non-decreasing.
	e := NewEngine()
	rng := rand.New(rand.NewSource(7))
	var times []VTime
	for i := 0; i < 100; i++ {
		e.At(VTime(rng.Intn(1000)), func() { times = append(times, e.Now()) })
	}
	e.Run()
	if !sort.SliceIsSorted(times, func(i, j int) bool { return times[i] < times[j] }) {
		t.Fatal("event times not monotonic")
	}
}

func TestVTimeString(t *testing.T) {
	cases := map[VTime]string{
		5:                "5ns",
		1500:             "1.500µs",
		2 * Millisecond:  "2.000ms",
		3 * Second:       "3.000s",
		42 * Microsecond: "42.000µs",
	}
	for v, want := range cases {
		if got := v.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int64(v), got, want)
		}
	}
	if m := (1500 * Nanosecond).Micros(); m != 1.5 {
		t.Errorf("Micros = %v", m)
	}
}

// TestPendingByRank pins the backlog tap the queue-depth watchdog uses:
// AtRank events are attributed to their rank, driver work (At, rank -1)
// is not, and executed events leave the counts.
func TestPendingByRank(t *testing.T) {
	e := NewEngine()
	counts := make([]int, 3)
	e.AtRank(0, 10, func() {})
	e.AtRank(1, 10, func() {})
	e.AtRank(1, 20, func() {})
	e.AtRank(2, 30, func() {})
	e.At(5, func() {}) // driver event: unattributed
	e.PendingByRank(counts)
	if counts[0] != 1 || counts[1] != 2 || counts[2] != 1 {
		t.Fatalf("initial backlog %v, want [1 2 1]", counts)
	}
	e.RunFor(15)
	e.PendingByRank(counts)
	if counts[0] != 0 || counts[1] != 1 || counts[2] != 1 {
		t.Fatalf("backlog after t=15 %v, want [0 1 1]", counts)
	}
	e.Run()
	e.PendingByRank(counts)
	for r, c := range counts {
		if c != 0 {
			t.Fatalf("rank %d still shows %d pending after drain", r, c)
		}
	}
}

// TestEventQueueShrinksOnDrain pins the pop-side shrink: a drained burst
// must not pin its high-water backing array. Push well past minQueueCap,
// drain below a quarter of capacity, and assert the backing array was
// reallocated smaller.
func TestEventQueueShrinksOnDrain(t *testing.T) {
	var q eventQueue
	const burst = 1024
	for i := 0; i < burst; i++ {
		q.push(event{at: VTime(i), tie: uint64(i)})
	}
	peak := cap(q)
	if peak < burst {
		t.Fatalf("cap %d after %d pushes", peak, burst)
	}
	// Drain until live size is far below the peak. The shrink halves
	// capacity each time len falls under cap/4, so after the drain the
	// capacity must be strictly below the high-water mark.
	for len(q) > burst/16 {
		q.pop()
	}
	if cap(q) >= peak {
		t.Fatalf("queue did not shrink: cap %d (peak %d, len %d)", cap(q), peak, len(q))
	}
	// The floor holds: draining to empty never reallocates below
	// minQueueCap.
	for len(q) > 0 {
		q.pop()
	}
	if cap(q) > 0 && cap(q) < minQueueCap/2 {
		t.Fatalf("shrank below floor: cap %d", cap(q))
	}
	// Heap order survived the reallocations: refill and pop in order.
	for i := burst; i > 0; i-- {
		q.push(event{at: VTime(i), tie: uint64(i)})
	}
	prev := VTime(-1)
	for len(q) > 0 {
		ev := q.pop()
		if ev.at < prev {
			t.Fatalf("heap order broken after shrink: %d after %d", ev.at, prev)
		}
		prev = ev.at
	}
}

// TestRunUntilStride checks the stride-checked drain: the predicate is
// consulted only every stride events, so the engine may overshoot by at
// most stride-1 events, and never stalls short of the goal.
func TestRunUntilStride(t *testing.T) {
	e := NewEngine()
	ran := 0
	for i := 0; i < 1000; i++ {
		e.At(VTime(i), func() { ran++ })
	}
	const goal, stride = 500, 64
	if ok := e.RunUntilStride(func() bool { return ran >= goal }, stride); !ok {
		t.Fatal("RunUntilStride reported queue exhaustion before the goal")
	}
	if ran < goal || ran >= goal+stride {
		t.Fatalf("ran %d events; want within [%d, %d)", ran, goal, goal+stride)
	}
	// Exhaustion path: predicate never satisfied drains the queue and
	// reports false.
	if ok := e.RunUntilStride(func() bool { return false }, stride); ok {
		t.Fatal("RunUntilStride reported success on an unsatisfiable predicate")
	}
	if ran != 1000 {
		t.Fatalf("exhaustion drain ran %d of 1000", ran)
	}
}
