package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"nmvgas/internal/gas"
	"nmvgas/internal/loadbal"
	"nmvgas/internal/netsim"
	"nmvgas/internal/parcel"
	"nmvgas/internal/runtime"
	"nmvgas/internal/trace"
	"nmvgas/internal/workloads"
)

// des-tenants: the F19 multi-tenant Zipfian KV mix (workloads.Tenants:
// reads plus every-6th-op writes and a shared read-mostly region) on 8
// simulated ranks, agas-nm, with Config.Heat and Config.Pulse (default
// watchdogs) on, a driver-stepped loadbal.Policy that migrates and
// replicates, Shift() every few epochs so the policy keeps working, and
// a light seeded drop-only fault plan so the reliable layer sends, acks,
// retransmits and dedups. It is the write side of the NIC translation
// layer des-storm only reads, and the one workload that exercises
// migration, replica coherence, heat, the pulse, reliability and
// loadbal.
//
// A round runs several such worlds, each from its own seed derived from
// the run's seed. Host cost per op differs by a few percent from one seed
// to the next; averaging a few seeds per round keeps that out of the
// spread between runs with different seeds.

const (
	tenantsRanks      = 8
	tenantsWindow     = 8
	tenantsShiftEvery = 4 // epochs between hotspot shifts
	tenantsDrop       = 0.01
)

type tenantsSizes struct{ worlds, perRank, epochs int }

func tenantsCounts(quick bool) tenantsSizes {
	if quick {
		return tenantsSizes{worlds: 2, perRank: 220, epochs: 5}
	}
	return tenantsSizes{worlds: 4, perRank: 480, epochs: 12}
}

func tenantsRound(p *pass) (roundResult, error) {
	n := tenantsCounts(p.cfg.quick)
	var parts []vals
	var out roundResult
	var ops, setup, wall, cpu, simMs, depthMax float64
	h := fnv.New64a()
	for k := 0; k < n.worlds; k++ {
		if k > 0 {
			if err := p.sampleRef(refEvents / 4); err != nil {
				return roundResult{}, err
			}
		}
		r, err := tenantsWorld(p, n, p.cfg.seed*int64(n.worlds)+int64(k))
		if err != nil {
			return roundResult{}, err
		}
		parts = append(parts, r.v)
		out.attempted += r.attempted
		out.failed += r.failed
		fmt.Fprintf(h, "%016x", r.fp)
		ops += r.v["ops"]
		setup += r.v["setup_s"]
		wall += r.v["wall_s"]
		cpu += r.v["cpu_s"]
		simMs += r.v["sim_ms"]
		depthMax = math.Max(depthMax, r.v["netsim.queue_depth_max"])
	}
	// Counts and ratios read per world; rates are taken over the round.
	out.v = meanVals(parts)
	out.v["setup_s"] = setup
	out.v["ops_per_s"] = ops / wall
	out.v["ops_per_cpu_s"] = ops / cpu
	out.v["sim_ops_per_ms"] = ratio(ops, simMs)
	out.v["netsim.queue_depth_max"] = depthMax
	out.fp = h.Sum64()
	return out, nil
}

// tenantsWorld runs one world of the workload from seed. Besides its
// metrics, its vals carry the raw sums the round combines: ops, wall_s,
// cpu_s and sim_ms.
func tenantsWorld(p *pass, n tenantsSizes, seed int64) (roundResult, error) {
	v := vals{}

	t0 := time.Now()
	id := p.sp.begin("runtime.setup")
	var w *runtime.World
	var err error
	p.sp.do("runtime.new_world", func() {
		w, err = runtime.NewWorld(runtime.Config{
			Ranks: tenantsRanks, Mode: runtime.AGASNM, Engine: runtime.EngineDES,
			Seed: seed, Metrics: p.traced,
			Heat:   runtime.HeatConfig{Enabled: true},
			Pulse:  runtime.PulseConfig{Enabled: true},
			Faults: netsim.FaultPlan{Drop: tenantsDrop},
		})
	})
	if err != nil {
		return roundResult{}, err
	}
	defer w.Stop()
	tn := workloads.NewTenants(w)
	var depthSum, depthMax, probes float64
	if p.traced {
		trace.Attach(w, 1<<16)
		// The pulse tick is the queue-depth probe: it runs inside the
		// simulation at a fixed simulated cadence.
		w.OnPulse("vgasperf.queue-depth", func(runtime.PulseInfo) {
			d := float64(w.Engine().Pending())
			depthSum += d
			probes++
			if d > depthMax {
				depthMax = d
			}
		})
	}
	p.sp.do("runtime.start", w.Start)
	// bsize 256, 8 blocks per tenant, 4 shared read-mostly blocks, 64 B
	// reads, Zipf skew 1.8, a write every 6th tenant op (F19's mix).
	p.sp.do("workloads.setup", func() { err = tn.Setup(256, 8, 4, 64, 1.8, 6, seed) })
	if err != nil {
		return roundResult{}, err
	}
	var pol *loadbal.Policy
	p.sp.do("loadbal.new_policy", func() {
		pol, err = loadbal.NewPolicy(w, loadbal.PolicyConfig{
			Layout: tn.Layout(), MoveBudget: 16, HotShare: 0.005, Replicas: tenantsRanks - 1,
		})
	})
	if err != nil {
		return roundResult{}, err
	}
	p.sp.end(id)
	v["setup_s"] = time.Since(t0).Seconds()
	if p.shape == nil {
		lay := tn.Layout()
		blocks := make([]gas.BlockID, lay.NBlocks)
		for i := range blocks {
			blocks[i] = lay.BlockAt(uint32(i)).Block()
		}
		// KV completions return to the issuer as LCO-set parcels with an
		// 8-byte payload.
		p.shape = &shape{
			parcel: &parcel.Parcel{Action: runtime.ALCOSet, Target: lay.BlockAt(0), Payload: make([]byte, 8), Src: 0, Seq: 1, OpID: 1<<48 | 1},
			blocks: blocks,
		}
	}

	eng := w.Engine()
	events0, sim0, g0 := eng.Processed(), w.Now(), readGC()
	var ops, issued, reads, planned, failedOps int64
	var stepNs, imbSum float64
	start, cpu0 := time.Now(), cpuTime()
	for e := 0; e < n.epochs; e++ {
		if e > 0 && e%tenantsShiftEvery == 0 {
			tn.Shift()
		}
		var got int
		var rerr error
		p.sp.do("workloads.epoch", func() { got, rerr = tn.Run(n.perRank, tenantsWindow) })
		if rerr != nil {
			failedOps += int64(n.perRank * tenantsRanks)
			continue
		}
		ops += int64(got)
		issued += tn.Reads() + tn.Writes()
		reads += tn.Reads()
		var rep loadbal.Report
		sid := p.sp.begin("loadbal.step")
		t := time.Now()
		rep, _ = pol.Step() // refused moves are counted in the report
		stepNs += since(t)
		p.sp.end(sid)
		planned += int64(rep.Moves + rep.MoveFailures)
		imbSum += rep.Imbalance
	}
	p.sp.do("runtime.drain", w.Drain)
	wall, cpu := time.Since(start), cpuTime()-cpu0
	events := eng.Processed() - events0
	hostCost(v, events, ops, wall, g0, readGC())
	v["ops"], v["wall_s"], v["cpu_s"] = float64(ops), wall.Seconds(), cpu.Seconds()
	v["sim_ms"] = float64(w.Now()-sim0) / float64(netsim.Millisecond)
	if p.traced {
		v["loadbal.step_us"] = stepNs / float64(n.epochs) / 1e3
		v["netsim.queue_depth_mean"] = ratio(depthSum, probes)
		v["netsim.queue_depth_max"] = depthMax
	}
	v["heap_live_mb"] = liveHeapMB()

	var ws runtime.WorldStats
	p.sp.do("runtime.stats", func() { ws = w.Stats() })
	worldCounts(v, ws, ops)
	st := pol.Stats()
	v["loadbal.moves"] = float64(st.Moves)
	v["loadbal.move_failures"] = float64(st.MoveFailures)
	v["loadbal.move_success_ratio"] = ratio(float64(st.Moves), float64(st.Moves+st.MoveFailures))
	v["loadbal.replications"] = float64(st.Replications)
	v["loadbal.imbalance"] = imbSum / float64(n.epochs)
	v["replica.hit_share"] = ratio(float64(ws.ReplicaReads), float64(reads))
	fp := fingerprint(w, ws)
	p.sp.do("runtime.stop", w.Stop)

	want := int64(n.perRank * tenantsRanks * n.epochs)
	p.ck.eq("des-tenants.ops_completed", ops, want)
	p.ck.eq("des-tenants.ops_issued", issued, want)
	p.ck.eq("des-tenants.reliable_abandoned", int64(ws.Delivery.Abandoned), 0)
	p.ck.eq("des-tenants.unacked_end", int64(ws.Unacked), 0)
	p.ck.eq("des-tenants.policy_attempts", st.Moves+st.MoveFailures, planned)
	p.ck.eq("des-tenants.policy_moves_migrated", st.Moves, ws.Migrations)
	return roundResult{v: v, attempted: want, failed: failedOps + int64(ws.Delivery.Abandoned), fp: fp}, nil
}
