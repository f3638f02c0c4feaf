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

// recorder is a typed event handler that logs the OpID of every message
// it handles.
type recorder struct{ got []int }

func (r *recorder) HandleMsg(m *Message) { r.got = append(r.got, int(m.OpID)) }

func TestEngineFIFOAtEqualTimes(t *testing.T) {
	e := NewEngine()
	rec := &recorder{}
	for i := 0; i < 12; i++ {
		i := i
		// AtRank and AtMsg share At's sequence: attribution and the typed
		// form never reorder ties.
		switch i % 3 {
		case 0:
			e.AtRank(i%4, 5, func() { rec.got = append(rec.got, i) })
		case 1:
			e.AtMsg(i%4, 5, rec, &Message{OpID: uint64(i)})
		default:
			e.At(5, func() { rec.got = append(rec.got, i) })
		}
	}
	e.Run()
	if len(rec.got) != 12 {
		t.Fatalf("ran %d of 12 equal-time events", len(rec.got))
	}
	for i, v := range rec.got {
		if v != i {
			t.Fatalf("equal-time events ran out of order: %v", rec.got)
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
	// Typed and closure events share one (at, tie) order: replaying the
	// schedule must pop them in exactly the sorted (time, insertion)
	// order, whichever form each event took.
	run := func(seed int64) []int {
		e := NewEngine()
		rng := rand.New(rand.NewSource(seed))
		rec := &recorder{}
		type sched struct{ at, i int }
		var want []sched
		for i := 0; i < 200; i++ {
			i, at := i, rng.Intn(50)
			want = append(want, sched{at, i})
			if rng.Intn(2) == 0 {
				e.AtMsg(rng.Intn(4), VTime(at), rec, &Message{OpID: uint64(i)})
			} else {
				e.At(VTime(at), func() { rec.got = append(rec.got, i) })
			}
		}
		e.Run()
		sort.SliceStable(want, func(a, b int) bool { return want[a].at < want[b].at })
		for k, w := range want {
			if rec.got[k] != w.i {
				t.Fatalf("seed %d: event %d ran at position %d, want event %d", seed, rec.got[k], k, w.i)
			}
		}
		return rec.got
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

// TestTypedEventAllocatesNothing pins the allocation-free DES hop: once
// the queue has capacity, scheduling and dispatching a typed
// (handler, *Message) event allocates nothing, and neither does a
// closure event whose func value already exists (funcEvent adds no
// boxing).
func TestTypedEventAllocatesNothing(t *testing.T) {
	e := NewEngine()
	rec := &recorder{got: make([]int, 0, 1)}
	m := &Message{}
	typed := func() {
		e.AtMsg(1, e.Now()+1, rec, m)
		e.Step()
		rec.got = rec.got[:0]
	}
	typed() // warm the key heap, slab and free list
	if n := testing.AllocsPerRun(1000, typed); n != 0 {
		t.Fatalf("typed event schedule+dispatch allocates %v, want 0", n)
	}
	fn := func() {}
	closure := func() {
		e.At(e.Now()+1, fn)
		e.Step()
	}
	if n := testing.AllocsPerRun(1000, closure); n != 0 {
		t.Fatalf("func event schedule+dispatch allocates %v, want 0", n)
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
// AtRank and typed AtMsg events are attributed to their rank, driver
// work (At, or rank -1) is not, and executed events leave the counts.
func TestPendingByRank(t *testing.T) {
	e := NewEngine()
	counts := make([]int, 3)
	rec := &recorder{}
	e.AtRank(0, 10, func() {})
	e.AtMsg(1, 10, rec, &Message{})
	e.AtRank(1, 20, func() {})
	e.AtMsg(2, 30, rec, &Message{})
	e.At(5, func() {})               // driver event: unattributed
	e.AtMsg(-1, 25, rec, &Message{}) // typed driver event: unattributed
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
	if len(rec.got) != 3 {
		t.Fatalf("ran %d of 3 typed events", len(rec.got))
	}
}

// TestEventQueueShrinksOnDrain pins the pop-side shrink: a drained burst
// must not pin its high-water key array, payload slab or free list. Push
// well past minQueueCap, drain below a quarter of capacity, and assert
// all three were reallocated smaller.
func TestEventQueueShrinksOnDrain(t *testing.T) {
	var q eventQueue
	const burst = 1024
	h := funcEvent(func() {})
	for i := 0; i < burst; i++ {
		q.push(evKey{at: VTime(i), tie: uint64(i)}, evPayload{h: h})
	}
	peak, slabPeak := cap(q.keys), cap(q.slab)
	if peak < burst || slabPeak < burst {
		t.Fatalf("key cap %d, slab cap %d after %d pushes", peak, slabPeak, burst)
	}
	// Drain until live size is far below the peak. The shrink halves
	// capacity each time len falls under cap/4, so after the drain every
	// array must be strictly below the high-water mark.
	freePeak := 0
	for q.len() > burst/16 {
		q.pop()
		if cap(q.free) > freePeak {
			freePeak = cap(q.free)
		}
	}
	if cap(q.keys) >= peak {
		t.Fatalf("keys did not shrink: cap %d (peak %d, len %d)", cap(q.keys), peak, q.len())
	}
	if cap(q.slab) >= slabPeak || cap(q.free) >= freePeak {
		t.Fatalf("slab/free list did not shrink: slab cap %d (peak %d), free cap %d (peak %d)",
			cap(q.slab), slabPeak, cap(q.free), freePeak)
	}
	if len(q.slab) != q.len()+len(q.free) {
		t.Fatalf("slab len %d != live %d + free %d", len(q.slab), q.len(), len(q.free))
	}
	// The floor holds: draining to empty never reallocates below
	// minQueueCap.
	for q.len() > 0 {
		q.pop()
	}
	if cap(q.keys) > 0 && cap(q.keys) < minQueueCap/2 {
		t.Fatalf("shrank below floor: cap %d", cap(q.keys))
	}
	// Heap order and slot bookkeeping survived the reallocations: refill
	// with distinct payloads and pop them back in order, each with its
	// own payload.
	msgs := make([]Message, burst+1)
	for i := burst; i > 0; i-- {
		msgs[i].OpID = uint64(i)
		q.push(evKey{at: VTime(i), tie: uint64(i)}, evPayload{h: h, m: &msgs[i]})
	}
	prev := VTime(-1)
	for q.len() > 0 {
		k, pl := q.pop()
		if k.at < prev {
			t.Fatalf("heap order broken after shrink: %d after %d", k.at, prev)
		}
		if pl.m == nil || pl.m.OpID != uint64(k.at) {
			t.Fatalf("event at %d popped with the wrong payload %+v", k.at, pl.m)
		}
		prev = k.at
	}
	for i, pl := range q.slab {
		if pl.h != nil || pl.m != nil {
			t.Fatalf("drained slab slot %d still pins %+v", i, pl)
		}
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
