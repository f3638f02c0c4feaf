package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
	"time"

	"nmvgas/internal/gas"
	"nmvgas/internal/parcel"
	"nmvgas/internal/runtime"
	"nmvgas/internal/trace"
)

// go-oneside: the real (goroutine-engine) runtime's hot path. Two 2-rank
// agas-nm worlds with default config; a 4 KiB block on rank 1 driven
// from rank 0. Four phases in a fixed order with fixed counts:
//
//  1. 64 B PutAsync through a 1024-deep in-flight window (closed loop);
//  2. blocking 64 B GetWaitInto, one outstanding (closed loop), each
//     read checked against the bytes phase 1 wrote;
//  3. a no-continuation Invoke pump;
//  4. the same pump on the second world with Coalesce.MaxParcels=16,
//     ending in FlushAll.
//
// It loads the actor mailbox, wire-buffer pool, parcel codec, chanNet
// translation and coalescer, and bypasses netsim, loadbal, heat and
// migration entirely.

const (
	onesideBlock  = 4096
	onesideSlot   = 64 // bytes per put/get
	onesideWindow = 1024
	waitLimit     = 60 * time.Second
)

type onesideSizes struct{ puts, gets, pump, coal int }

func onesideCounts(quick bool) onesideSizes {
	if quick {
		return onesideSizes{puts: 2000, gets: 500, pump: 2000, coal: 2000}
	}
	return onesideSizes{puts: 100_000, gets: 10_000, pump: 100_000, coal: 100_000}
}

// pumpTarget is one world's pump sink: it counts executions and stamps
// the wall time of the one that completes the phase.
type pumpTarget struct {
	ran    atomic.Int64
	want   atomic.Int64
	doneAt atomic.Int64 // ns since base
	done   chan struct{}
	base   time.Time
}

func (t *pumpTarget) arm(n int) {
	t.ran.Store(0)
	t.want.Store(int64(n))
	t.done = make(chan struct{})
}

func (t *pumpTarget) exec(*runtime.Ctx) {
	if t.ran.Add(1) == t.want.Load() {
		t.doneAt.Store(int64(time.Since(t.base)))
		close(t.done)
	}
}

// onesideWorld is one of the two worlds with its target block.
type onesideWorld struct {
	w     *runtime.World
	g     gas.GVA
	count parcel.ActionID
	sink  *pumpTarget
}

func newOnesideWorld(p *pass, coalesce int) (*onesideWorld, error) {
	ow := &onesideWorld{sink: &pumpTarget{base: time.Now()}}
	var err error
	p.sp.do("runtime.new_world", func() {
		ow.w, err = runtime.NewWorld(runtime.Config{
			Ranks: 2, Mode: runtime.AGASNM, Engine: runtime.EngineGo,
			Seed: p.cfg.seed, Metrics: p.traced,
			Coalesce: runtime.CoalesceConfig{MaxParcels: coalesce},
		})
	})
	if err != nil {
		return nil, err
	}
	ow.count = ow.w.Register("vgasperf.count", ow.sink.exec)
	if p.traced {
		trace.Attach(ow.w, 1<<16)
	}
	p.sp.do("runtime.start", ow.w.Start)
	var lay gas.Layout
	p.sp.do("runtime.alloc", func() { lay, err = ow.w.AllocLocal(1, onesideBlock, 1) })
	if err != nil {
		ow.w.Stop()
		return nil, err
	}
	ow.g = lay.BlockAt(0)
	return ow, nil
}

// waitDone waits for a phase's completion signal, giving up after
// waitLimit so a lost completion fails the run instead of hanging it.
func waitDone(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	case <-time.After(waitLimit):
		return false
	}
}

func onesideRound(p *pass) (roundResult, error) {
	n := onesideCounts(p.cfg.quick)
	v := vals{}
	rng := rand.New(rand.NewSource(p.cfg.seed))
	img := make([]byte, onesideBlock)
	rng.Read(img)

	t0 := time.Now()
	id := p.sp.begin("runtime.setup")
	a, err := newOnesideWorld(p, 0)
	if err != nil {
		return roundResult{}, err
	}
	defer a.w.Stop()
	b, err := newOnesideWorld(p, 16)
	if err != nil {
		return roundResult{}, err
	}
	defer b.w.Stop()
	p.sp.end(id)
	v["setup_s"] = time.Since(t0).Seconds()
	if p.shape == nil {
		p.shape = &shape{
			parcel: &parcel.Parcel{Action: a.count, Target: a.g, Src: 0, Seq: 1, OpID: 1<<48 | 1},
			blocks: []gas.BlockID{a.g.Block()},
		}
	}
	proc := a.w.Proc(0)

	// Phase 1: pipelined puts. Slot i%64 always receives the same 64
	// bytes of img, so the block's final image is known whatever order
	// the puts land in.
	cpu0 := cpuTime()
	id = p.sp.begin("runtime.put_phase")
	mark := markAllocs()
	tokens := make(chan struct{}, onesideWindow) // the in-flight window
	putsDone := make(chan struct{})
	var acked atomic.Int64
	cb := func() {
		<-tokens
		if acked.Add(1) == int64(n.puts) {
			close(putsDone)
		}
	}
	var issueNs, windowNs float64
	start := time.Now()
	for i := 0; i < n.puts; i++ {
		off := (i % (onesideBlock / onesideSlot)) * onesideSlot
		dst, data := a.g.WithOffset(uint32(off)), img[off:off+onesideSlot]
		if p.traced {
			t := time.Now()
			tokens <- struct{}{}
			windowNs += since(t)
			t = time.Now()
			proc.PutAsync(dst, data, cb)
			issueNs += since(t)
			continue
		}
		tokens <- struct{}{}
		proc.PutAsync(dst, data, cb)
	}
	putOK := waitDone(putsDone)
	putDur := time.Since(start)
	if p.traced {
		mark.perOp(v, "runtime.put", n.puts)
		v["runtime.put_issue_ns"] = issueNs / float64(n.puts)
		v["runtime.put_window_wait_ns"] = windowNs / float64(n.puts)
	}
	p.sp.end(id)
	v["put_per_s"] = float64(n.puts) / putDur.Seconds()

	// Phase 2: blocking gets, one outstanding, each verified.
	id = p.sp.begin("runtime.get_phase")
	mark = markAllocs()
	lat := make([]float64, n.gets)
	buf := make([]byte, onesideSlot)
	start = time.Now()
	for i := range lat {
		off := rng.Intn(onesideBlock/onesideSlot) * onesideSlot
		t := time.Now()
		proc.GetWaitInto(a.g.WithOffset(uint32(off)), buf)
		lat[i] = since(t)
		p.ck.bytesEq("go-oneside.get_matches_put", buf, img[off:off+onesideSlot])
	}
	getDur := time.Since(start)
	if p.traced {
		mark.perOp(v, "runtime.get", n.gets)
	}
	p.sp.end(id)
	sort.Float64s(lat)
	v["get_p50_us"] = percentile(lat, 50) / 1e3
	v["get_p99_us"] = percentile(lat, 99) / 1e3
	v["get_samples"] = float64(n.gets)

	// Phase 3: uncoalesced Invoke pump.
	id = p.sp.begin("runtime.pump_phase")
	pumpDur, pumpOK := pump(p, a, n.pump, v, "runtime.parcel", false)
	p.sp.end(id)
	v["parcel_per_s"] = float64(n.pump) / pumpDur.Seconds()

	// Phase 4: the same pump through the coalescer, ending in FlushAll.
	id = p.sp.begin("coalesce.pump_phase")
	coalDur, coalOK := pump(p, b, n.coal, v, "runtime.coalesced", true)
	p.sp.end(id)
	v["coalesced_per_s"] = float64(n.coal) / coalDur.Seconds()

	cpu := cpuTime() - cpu0
	timed := putDur + getDur + pumpDur + coalDur
	ops := n.puts + n.gets + n.pump + n.coal
	v["ops_per_s"] = float64(ops) / timed.Seconds()
	v["ops_per_cpu_s"] = float64(ops) / cpu.Seconds()
	v["heap_live_mb"] = liveHeapMB()

	if p.traced {
		var sa, sb runtime.WorldStats
		p.sp.do("runtime.stats", func() { sa, sb = a.w.Stats(), b.w.Stats() })
		v["runtime.parcel_exec_p50_ns"] = float64(sa.Latencies.ParcelExec.P50Ns)
		v["runtime.parcel_exec_p99_ns"] = float64(sa.Latencies.ParcelExec.P99Ns)
		v["coalesce.flush_delay_p50_ns"] = float64(sb.Latencies.CoalesceFlush.P50Ns)
	}
	p.sp.do("runtime.stop", func() { a.w.Stop(); b.w.Stop() })

	// Counts are read after Stop, so an execution that arrives after the
	// completion signal still shows as a miscount.
	p.ck.eq("go-oneside.puts_acked", acked.Load(), int64(n.puts))
	p.ck.eq("go-oneside.pump_runs", a.sink.ran.Load(), int64(n.pump))
	p.ck.eq("go-oneside.coalesced_runs", b.sink.ran.Load(), int64(n.coal))
	failed := miss(acked.Load(), n.puts) + miss(a.sink.ran.Load(), n.pump) + miss(b.sink.ran.Load(), n.coal)
	if !putOK || !pumpOK || !coalOK {
		return roundResult{}, fmt.Errorf("go-oneside: a phase did not complete within %v (puts %v, pump %v, coalesced %v)",
			waitLimit, putOK, pumpOK, coalOK)
	}
	return roundResult{v: v, attempted: int64(ops), failed: failed}, nil
}

// pump fires count no-continuation parcels from rank 0 at the block on
// rank 1 and waits for the last execution. The rate is taken from the
// first Invoke to the last execution; with flush, the coalescer is
// flushed after the last Invoke and the flush is timed.
func pump(p *pass, ow *onesideWorld, count int, v vals, allocPrefix string, flush bool) (time.Duration, bool) {
	mark := markAllocs()
	ow.sink.arm(count)
	proc := ow.w.Proc(0)
	var invokeNs float64
	start := time.Now()
	for i := 0; i < count; i++ {
		if p.traced {
			t := time.Now()
			proc.Invoke(ow.g, ow.count, nil)
			invokeNs += since(t)
			continue
		}
		proc.Invoke(ow.g, ow.count, nil)
	}
	lastInvoke := time.Since(ow.sink.base)
	if flush {
		id := p.sp.begin("coalesce.flushall")
		t := time.Now()
		ow.w.Locality(0).FlushAll()
		if p.traced {
			v["coalesce.flushall_ns"] = since(t)
		}
		p.sp.end(id)
	}
	ok := waitDone(ow.sink.done)
	end := time.Duration(ow.sink.doneAt.Load())
	if !ok {
		end = time.Since(ow.sink.base)
	}
	if p.traced {
		mark.perOp(v, allocPrefix, count)
		if !flush {
			v["runtime.invoke_ns"] = invokeNs / float64(count)
			v["runtime.drain_wait_ns"] = float64(end - lastInvoke)
		}
	}
	return end - start.Sub(ow.sink.base), ok
}

// miss is how far a completion count is from the operations issued; an
// operation that completed twice counts as failed like a lost one.
func miss(got int64, want int) int64 {
	d := int64(want) - got
	if d < 0 {
		d = -d
	}
	return d
}
