// Package netsim is the simulated network substrate: a deterministic
// discrete-event engine, a LogGP-style cost model, and a NIC model with an
// on-NIC translation table.
//
// The paper's system ran over RDMA hardware (Photon middleware on
// InfiniBand / uGNI). This package is the documented substitution: it
// reproduces the *architectural* properties that matter for the paper's
// claims — where translation happens (host software vs NIC), how many
// wire hops and host round-trips each policy costs, NIC occupancy, and
// translation-table capacity — on a simulated clock that Go's garbage
// collector cannot perturb.
package netsim

import (
	"fmt"
)

// VTime is simulated time in nanoseconds since the start of the run.
type VTime int64

// Common durations.
const (
	Nanosecond  VTime = 1
	Microsecond VTime = 1000
	Millisecond VTime = 1000 * 1000
	Second      VTime = 1000 * 1000 * 1000
)

func (t VTime) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fµs", float64(t)/float64(Microsecond))
	}
	return fmt.Sprintf("%dns", int64(t))
}

// Micros returns t in microseconds as a float, for table output.
func (t VTime) Micros() float64 { return float64(t) / float64(Microsecond) }

// MsgHandler is the typed form of a scheduled event: the engine calls
// HandleMsg(m) with the message it was scheduled with. Per-message DES
// work (sends, wire arrivals, host deliveries, action bodies) schedules
// a pointer-shaped handler — a named type over *NIC or *Locality — next
// to the *Message instead of a capturing closure, so storing the pair
// allocates nothing.
type MsgHandler interface {
	HandleMsg(m *Message)
}

// funcEvent adapts a plain closure (At/AtRank) to MsgHandler. A func
// value is pointer-shaped, so the conversion allocates nothing; m is
// always nil.
type funcEvent func()

func (f funcEvent) HandleMsg(*Message) { f() }

// evKey is the heap-ordered half of an event. tie breaks equal-time
// events into a strict total order; rank names the locality the event
// is attributed to (-1 for driver work), which PendingByRank reads to
// attribute backlog; slot indexes the event's payload in the slab. It
// holds no pointers, so sifting it costs no write barriers and the
// garbage collector never scans the heap array.
type evKey struct {
	at   VTime
	tie  uint64
	rank int32
	slot uint32
}

// evPayload is the pointer-carrying half of an event, parked in the
// slab while its key waits in the heap.
type evPayload struct {
	h MsgHandler
	m *Message
}

// evLess orders events by (at, tie); tie is unique, so the order is a
// strict total order and pop sequence is independent of heap shape.
func evLess(a, b evKey) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.tie < b.tie
}

// minQueueCap is the floor below which eventQueue never shrinks its
// backing arrays: bursts smaller than this are steady-state noise, not
// worth a reallocation to reclaim.
const minQueueCap = 64

// eventQueue is an index-typed 4-ary min-heap of pointer-free keys over
// a payload slab. Compared to container/heap it pays no interface-boxing
// allocation per push and half the tree height per sift. A popped key's
// slab slot goes on the free list and is reused by the next push, so
// len(slab) == len(keys) + len(free) and a steady-state engine
// allocates nothing per event.
type eventQueue struct {
	keys []evKey
	slab []evPayload
	free []uint32
}

func (q *eventQueue) len() int { return len(q.keys) }

func (q *eventQueue) push(k evKey, pl evPayload) {
	if n := len(q.free); n > 0 {
		k.slot = q.free[n-1]
		q.free = q.free[:n-1]
		q.slab[k.slot] = pl
	} else {
		k.slot = uint32(len(q.slab))
		q.slab = append(q.slab, pl)
	}
	h := append(q.keys, k)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !evLess(k, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = k
	q.keys = h
}

// pop removes the earliest event and returns its key and payload. The
// payload's slot is released (zeroed, so the slab pins nothing) before
// the caller runs it, so events it schedules reuse the slot.
func (q *eventQueue) pop() (evKey, evPayload) {
	h := q.keys
	root := h[0]
	pl := q.slab[root.slot]
	q.slab[root.slot] = evPayload{}
	q.free = append(q.free, root.slot)
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			c := i<<2 + 1
			if c >= n {
				break
			}
			m := c
			end := c + 4
			if end > n {
				end = n
			}
			for j := c + 1; j < end; j++ {
				if evLess(h[j], h[m]) {
					m = j
				}
			}
			if !evLess(h[m], last) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = last
	}
	q.keys = h
	if cap(h) > minQueueCap && n < cap(h)/4 {
		q.shrink()
	}
	return root, pl
}

// shrink halves the backing arrays after a drained burst, which would
// otherwise pin its high-water key array, slab and free list forever;
// the halving keeps headroom for the next burst while bounding the waste
// at 4x live size. The slab is compacted to the live payloads (keys are
// renumbered in place; slot takes no part in ordering) and the free list
// starts empty.
func (q *eventQueue) shrink() {
	c := cap(q.keys) / 2
	keys := make([]evKey, len(q.keys), c)
	slab := make([]evPayload, len(q.keys), c)
	for i, k := range q.keys {
		slab[i] = q.slab[k.slot]
		k.slot = uint32(i)
		keys[i] = k
	}
	q.keys, q.slab, q.free = keys, slab, nil
}

// Engine is a discrete-event simulator: all simulated work — NIC
// activity, host handlers, runtime actions — runs as events on one
// goroutine, which makes every run bit-for-bit deterministic.
type Engine struct {
	q   eventQueue
	now VTime
	seq uint64
	// processed counts executed events, exposed for sanity checks and the
	// engine-overhead ablation.
	processed uint64
}

// NewEngine returns an engine at simulated time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() VTime { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of scheduled-but-unexecuted events.
func (e *Engine) Pending() int { return e.q.len() }

// PendingByRank counts scheduled-but-unexecuted events attributed to
// each rank into counts (one slot per rank); driver work (rank -1) is
// not attributed. It is an on-demand O(pending) scan over the heap, so
// the hot scheduling path pays nothing for the tap — the watchdog that
// calls it runs at pulse cadence, not per event.
func (e *Engine) PendingByRank(counts []int) {
	for i := range counts {
		counts[i] = 0
	}
	for i := range e.q.keys {
		if r := int(e.q.keys[i].rank); r >= 0 && r < len(counts) {
			counts[r]++
		}
	}
}

// At schedules fn to run at absolute simulated time t. Scheduling in the
// past is a protocol bug and panics.
func (e *Engine) At(t VTime, fn func()) { e.AtRank(-1, t, fn) }

// After schedules fn to run d after the current simulated time.
func (e *Engine) After(d VTime, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("netsim: negative delay %v", d))
	}
	e.At(e.now+d, fn)
}

// AtRank is At with the event attributed to rank, so backlog taps
// (PendingByRank) can count it.
func (e *Engine) AtRank(rank int, t VTime, fn func()) {
	e.AtMsg(rank, t, funcEvent(fn), nil)
}

// AtMsg schedules h.HandleMsg(m) at absolute simulated time t,
// attributed to rank (-1 for driver work). It is the allocation-free
// form of AtRank for per-message work and shares its sequence, so typed
// and closure events interleave in one strict (at, tie) order.
func (e *Engine) AtMsg(rank int, t VTime, h MsgHandler, m *Message) {
	if t < e.now {
		panic(fmt.Sprintf("netsim: scheduling at %v before now %v", t, e.now))
	}
	e.seq++
	e.q.push(evKey{at: t, tie: e.seq, rank: int32(rank)}, evPayload{h: h, m: m})
}

// AfterRank schedules fn d after now, attributed to rank (see AtRank).
func (e *Engine) AfterRank(rank int, d VTime, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("netsim: negative delay %v", d))
	}
	e.AtRank(rank, e.now+d, fn)
}

// Step executes the next event, returning false when the queue is empty.
func (e *Engine) Step() bool {
	if e.q.len() == 0 {
		return false
	}
	k, p := e.q.pop()
	e.now = k.at
	e.processed++
	p.h.HandleMsg(p.m)
	return true
}

// Run executes events until the queue drains.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events until done reports true or the queue drains,
// evaluating done after every event. It returns whether done was
// satisfied.
func (e *Engine) RunUntil(done func() bool) bool {
	if done() {
		return true
	}
	for e.Step() {
		if done() {
			return true
		}
	}
	return done()
}

// RunUntilStride is RunUntil checking done only every stride events, for
// hot drain loops where a closure call per event is measurable (large
// worlds push tens of millions of events per run). A stride below 1 is
// treated as 1.
func (e *Engine) RunUntilStride(done func() bool, stride int) bool {
	if stride < 1 {
		stride = 1
	}
	if done() {
		return true
	}
	for {
		for i := 0; i < stride; i++ {
			if !e.Step() {
				return done()
			}
		}
		if done() {
			return true
		}
	}
}

// RunFor executes events with timestamps up to and including deadline.
func (e *Engine) RunFor(d VTime) {
	deadline := e.now + d
	for e.q.len() > 0 && e.q.keys[0].at <= deadline {
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}
