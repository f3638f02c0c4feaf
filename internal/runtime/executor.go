package runtime

import (
	"sync"

	"nmvgas/internal/netsim"
	"nmvgas/internal/sched"
)

// Executor serializes work attributed to one locality's host CPU.
type Executor interface {
	// Exec schedules fn after charging cost to the host timeline. On the
	// DES engine the host is modelled as a single core: tasks start when
	// the core is free and the core stays busy for cost. On the
	// goroutine engine cost is ignored and fn runs on the locality
	// actor.
	Exec(cost netsim.VTime, fn func())
	// Charge extends the host-busy window from inside a running task
	// (simulated compute time). No-op on the goroutine engine.
	Charge(extra netsim.VTime)
	// Offload runs fn on a worker when the engine has a worker pool,
	// else behaves like Exec(0, fn). Used for user action bodies.
	Offload(fn func())
}

// desExec models one host core on the discrete-event engine. Host tasks
// are attributed to the rank, so they count toward its backlog in
// PendingByRank.
type desExec struct {
	eng  *netsim.Engine
	rank int
	busy netsim.VTime
}

// reserve books cost on the core and returns when the task runs.
func (e *desExec) reserve(cost netsim.VTime) netsim.VTime {
	start := e.eng.Now()
	if e.busy > start {
		start = e.busy
	}
	e.busy = start + cost
	return e.busy
}

func (e *desExec) Exec(cost netsim.VTime, fn func()) {
	e.eng.AtRank(e.rank, e.reserve(cost), fn)
}

// post is Exec for a typed per-message event: h.HandleMsg(m) runs on
// the core with no capturing closure. goExec has its own typed mailbox
// lanes (execMsg/execLocal), so this stays off the Executor interface.
func (e *desExec) post(cost netsim.VTime, h netsim.MsgHandler, m *netsim.Message) {
	e.eng.AtMsg(e.rank, e.reserve(cost), h, m)
}

// The per-message DES host events. Each is a pointer-shaped view of a
// Locality, so handing one to the engine as a netsim.MsgHandler
// allocates nothing.
type (
	// injectEvent hands m to the fabric at the host-busy horizon
	// (Locality.inject).
	injectEvent Locality
	// hostMsgEvent runs the host receive path for a NIC delivery or a
	// local one (Locality.onHostMsg).
	hostMsgEvent Locality
	// userParcelEvent runs a user-action parcel body. The parcel is
	// decoded and its action looked up here, not at delivery: onHostMsg
	// only peeks the action id.
	userParcelEvent Locality
)

func (h *injectEvent) HandleMsg(m *netsim.Message) {
	l := (*Locality)(h)
	l.w.net.send(l.rank, m)
}

func (h *hostMsgEvent) HandleMsg(m *netsim.Message) { (*Locality)(h).onHostMsg(m) }

func (h *userParcelEvent) HandleMsg(m *netsim.Message) {
	l := (*Locality)(h)
	p := l.decodeParcel(m)
	l.runUserParcel(l.action(p.Action), p, m)
}

func (e *desExec) Charge(extra netsim.VTime) {
	if extra < 0 {
		return
	}
	now := e.eng.Now()
	if e.busy < now {
		e.busy = now
	}
	e.busy += extra
}

func (e *desExec) Offload(fn func()) { e.Exec(0, fn) }

// task is one mailbox entry on the goroutine engine. The common case is a
// typed message (m != nil) delivered by the transport or a local send —
// no capturing closure, no per-message allocation. fn covers everything
// else (timers, control actions, test hooks).
type task struct {
	fn    func()
	m     *netsim.Message
	local bool // m came from this locality (bypass the NIC receive path)
}

// execBatch bounds how many tasks the actor loop claims per lock
// acquisition: large enough to amortize the lock, small enough to keep
// stop() latency and memory bounded.
const execBatch = 128

// goExec is one locality actor: an unbounded mailbox drained by a single
// goroutine, optionally paired with a worker pool for user action bodies.
// The mailbox is a growable power-of-two ring buffer; the drain loop
// claims up to execBatch tasks under one lock acquisition, so enqueue and
// dequeue are both O(1) and a deep backlog no longer costs a slice shift
// per message.
type goExec struct {
	mu      sync.Mutex
	cond    *sync.Cond
	ring    []task // len(ring) is a power of two
	head    int    // index of the oldest queued task
	n       int    // number of queued tasks
	stopped bool
	wg      sync.WaitGroup
	pool    *sched.Pool // nil when Workers == 0

	// onMsg and onLocal are the typed delivery handlers, wired by
	// newChanNet / NewWorld before the actor starts: onMsg is the NIC
	// receive path (chanNet.arrive), onLocal the loopback host path
	// (onHostMsg).
	onMsg   func(*netsim.Message)
	onLocal func(*netsim.Message)

	// onDrain, when set, runs after every claimed batch of tasks — before
	// the loop can block on an empty mailbox — so per-drain accumulations
	// (coalesced put acks) always flush promptly.
	onDrain func()
}

func newGoExec(pool *sched.Pool) *goExec {
	e := &goExec{pool: pool, ring: make([]task, 64)}
	e.cond = sync.NewCond(&e.mu)
	return e
}

func (e *goExec) start() {
	e.wg.Add(1)
	go e.loop()
}

// depth reports the current mailbox backlog (metrics sampling).
func (e *goExec) depth() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.n
}

// push appends t to the ring, growing it when full. Caller holds e.mu.
func (e *goExec) push(t task) {
	if e.n == len(e.ring) {
		bigger := make([]task, len(e.ring)*2)
		p := copy(bigger, e.ring[e.head:])
		copy(bigger[p:], e.ring[:e.head])
		e.ring = bigger
		e.head = 0
	}
	e.ring[(e.head+e.n)&(len(e.ring)-1)] = t
	e.n++
	e.cond.Signal()
}

func (e *goExec) loop() {
	defer e.wg.Done()
	var batch [execBatch]task
	for {
		e.mu.Lock()
		for e.n == 0 && !e.stopped {
			e.cond.Wait()
		}
		if e.n == 0 && e.stopped {
			e.mu.Unlock()
			return
		}
		k := e.n
		if k > execBatch {
			k = execBatch
		}
		mask := len(e.ring) - 1
		for i := 0; i < k; i++ {
			j := (e.head + i) & mask
			batch[i] = e.ring[j]
			e.ring[j] = task{}
		}
		e.head = (e.head + k) & mask
		e.n -= k
		e.mu.Unlock()
		for i := 0; i < k; i++ {
			t := &batch[i]
			switch {
			case t.m != nil && t.local:
				e.onLocal(t.m)
			case t.m != nil:
				e.onMsg(t.m)
			default:
				t.fn()
			}
			*t = task{}
		}
		if e.onDrain != nil {
			e.onDrain()
		}
	}
}

// stop drains queued work and stops the actor.
func (e *goExec) stop() {
	e.mu.Lock()
	e.stopped = true
	e.cond.Broadcast()
	e.mu.Unlock()
	e.wg.Wait()
}

func (e *goExec) Exec(_ netsim.VTime, fn func()) {
	e.mu.Lock()
	if e.stopped {
		e.mu.Unlock()
		return
	}
	e.push(task{fn: fn})
	e.mu.Unlock()
}

// execMsg enqueues a transport-delivered message for the NIC receive path
// without allocating a closure. Messages enqueued after stop are dropped,
// matching Exec's stopped semantics.
func (e *goExec) execMsg(m *netsim.Message) {
	e.mu.Lock()
	if e.stopped {
		e.mu.Unlock()
		return
	}
	e.push(task{m: m})
	e.mu.Unlock()
}

// execLocal enqueues a locally-originated message straight for the host
// handler, bypassing the NIC receive path.
func (e *goExec) execLocal(m *netsim.Message) {
	e.mu.Lock()
	if e.stopped {
		e.mu.Unlock()
		return
	}
	e.push(task{m: m, local: true})
	e.mu.Unlock()
}

func (e *goExec) Charge(netsim.VTime) {}

func (e *goExec) Offload(fn func()) {
	if e.pool != nil {
		e.pool.Submit(fn)
		return
	}
	e.Exec(0, fn)
}
