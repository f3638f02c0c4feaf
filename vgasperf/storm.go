package main

import (
	"sync/atomic"
	"time"

	"nmvgas/internal/gas"
	"nmvgas/internal/netsim"
	"nmvgas/internal/parcel"
	"nmvgas/internal/runtime"
	"nmvgas/internal/trace"
)

// des-storm: the F17 hot-potato relay on 1024 simulated localities on
// the default fat-tree, agas-nm, default Shards. Every rank seeds one
// parcel that hops to a seeded-random rank until its ttl runs out: a
// closed system of 1024 parcels in flight. Host time goes to event-queue
// push/pop, the NIC model, parcel dispatch and GC over a 1024-wide
// working set; no migration, replication, reliability, heat or pulse
// work runs, so optimising those layers should not move it.

type stormSizes struct{ ranks, ttl int }

func stormCounts(quick bool) stormSizes {
	if quick {
		return stormSizes{ranks: 64, ttl: 8}
	}
	return stormSizes{ranks: 1024, ttl: 48}
}

// probeStride is how many events run between completion probes (the
// F17 drain's stride).
const probeStride = 4096

func stormRound(p *pass) (roundResult, error) {
	n := stormCounts(p.cfg.quick)
	v := vals{}
	want := int64(n.ranks) * int64(n.ttl+1)

	t0 := time.Now()
	id := p.sp.begin("runtime.setup")
	topo, err := netsim.ParseTopology("fat-tree", n.ranks)
	if err != nil {
		return roundResult{}, err
	}
	var w *runtime.World
	p.sp.do("runtime.new_world", func() {
		w, err = runtime.NewWorld(runtime.Config{
			Ranks: n.ranks, Mode: runtime.AGASNM, Engine: runtime.EngineDES,
			Topology: topo, Seed: p.cfg.seed, Metrics: p.traced,
		})
	})
	if err != nil {
		return roundResult{}, err
	}
	defer w.Stop()
	var hops, dead atomic.Int64
	relay := w.Register("vgasperf.relay", func(c *runtime.Ctx) {
		hops.Add(1)
		pl := c.P.Payload
		ttl := parcel.U64(pl, 0)
		if ttl == 0 {
			dead.Add(1)
			return
		}
		state := lcg(parcel.U64(pl, 8))
		buf := parcel.PutU64(make([]byte, 0, 16), ttl-1)
		buf = parcel.PutU64(buf, state)
		c.Call(c.World().LocalityGVA(int(state>>33)%c.Ranks()), c.P.Action, buf)
	})
	if p.traced {
		trace.Attach(w, 1<<16)
	}
	p.sp.do("runtime.start", w.Start)
	p.sp.end(id)
	v["setup_s"] = time.Since(t0).Seconds()
	if p.shape == nil {
		blocks := make([]gas.BlockID, n.ranks)
		for r := range blocks {
			blocks[r] = w.LocalityGVA(r).Block()
		}
		p.shape = &shape{
			parcel: &parcel.Parcel{Action: relay, Target: w.LocalityGVA(1), Payload: make([]byte, 16), Src: 0, Seq: 1, OpID: 1<<48 | 1},
			blocks: blocks,
		}
	}

	eng := w.Engine()
	events0, sim0, g0 := eng.Processed(), w.Now(), readGC()
	var depthSum, depthMax, probes float64
	done := func() bool { return dead.Load() >= int64(n.ranks) }
	if p.traced {
		plainDone := done
		done = func() bool {
			d := float64(eng.Pending())
			depthSum += d
			probes++
			if d > depthMax {
				depthMax = d
			}
			return plainDone()
		}
	}
	id = p.sp.begin("netsim.relay_run")
	start, cpu0 := time.Now(), cpuTime()
	for r := 0; r < n.ranks; r++ {
		state := lcg(uint64(p.cfg.seed) ^ uint64(r+1)*0x9E3779B97F4A7C15)
		buf := parcel.PutU64(make([]byte, 0, 16), uint64(n.ttl))
		buf = parcel.PutU64(buf, state)
		w.Proc(r).Invoke(w.LocalityGVA(int(state>>33)%n.ranks), relay, buf)
	}
	eng.RunUntilStride(done, probeStride)
	eng.Run()
	wall, cpu := time.Since(start), cpuTime()-cpu0
	p.sp.end(id)
	v["ops_per_cpu_s"] = float64(hops.Load()) / cpu.Seconds()
	events := eng.Processed() - events0
	hostCost(v, events, hops.Load(), wall, g0, readGC())
	simMs := float64(w.Now()-sim0) / float64(netsim.Millisecond)
	v["ops_per_s"] = float64(hops.Load()) / wall.Seconds()
	v["sim_ops_per_ms"] = ratio(float64(hops.Load()), simMs)
	if p.traced {
		v["netsim.queue_depth_mean"] = ratio(depthSum, probes)
		v["netsim.queue_depth_max"] = depthMax
	}
	v["heap_live_mb"] = liveHeapMB()

	var ws runtime.WorldStats
	p.sp.do("runtime.stats", func() { ws = w.Stats() })
	worldCounts(v, ws, hops.Load())
	fp := fingerprint(w, ws)
	p.sp.do("runtime.stop", w.Stop)

	p.ck.eq("des-storm.hops", hops.Load(), want)
	p.ck.eq("des-storm.parcels_run", ws.ParcelsRun, want)
	p.ck.eq("des-storm.potatoes_dead", dead.Load(), int64(n.ranks))
	return roundResult{v: v, attempted: want, failed: miss(hops.Load(), int(want)), fp: fp}, nil
}

// lcg is the relay's next-hop generator (Knuth's MMIX LCG).
func lcg(x uint64) uint64 { return x*6364136223846793005 + 1442695040888963407 }
