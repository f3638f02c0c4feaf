package main

import (
	"fmt"
	"hash/fnv"
	"time"

	"nmvgas/internal/runtime"
)

// Shared parts of the two simulated (EngineDES) workloads.

// fingerprint hashes the simulated clock and every WorldStats counter
// except the latency histograms, which only the traced pass collects.
// Two runs that simulate the same behaviour print the same value, so a
// change meant to touch only the simulator's host cost must leave it
// unchanged.
func fingerprint(w *runtime.World, ws runtime.WorldStats) uint64 {
	ws.Latencies = runtime.WorldLatencies{}
	h := fnv.New64a()
	fmt.Fprintf(h, "now=%d %+v", w.Now(), ws)
	return h.Sum64()
}

// worldCounts records the deterministic per-round WorldStats counts
// shared by both DES workloads; ops is the round's application ops.
func worldCounts(v vals, ws runtime.WorldStats, ops int64) {
	v["netsim.msgs_per_op"] = ratio(float64(ws.NetSent), float64(ops))
	v["netsim.bytes_per_op"] = ratio(float64(ws.NetBytes), float64(ops))
	v["netsim.nic_forwards"] = float64(ws.NetForwards)
	v["netsim.nic_nacks"] = float64(ws.NetNacks)
	v["netsim.table_updates"] = float64(ws.NICTableUpds)
	v["runtime.host_forwards"] = float64(ws.HostForwards)
	v["runtime.host_nacks"] = float64(ws.HostNacks)
	v["runtime.migration_queued"] = float64(ws.Queued)
	d := ws.Delivery
	v["reliable.tracked"] = float64(d.Tracked)
	v["reliable.retransmits"] = float64(d.Retransmits)
	v["reliable.dups_suppressed"] = float64(d.DupsSuppressed)
	v["reliable.abandoned"] = float64(d.Abandoned)
	v["reliable.unacked_end"] = float64(ws.Unacked)
	v["reliable.retransmit_ratio"] = ratio(float64(d.Retransmits), float64(d.Tracked))
	v["migrate.completed"] = float64(ws.Migrations)
	v["replica.reads"] = float64(ws.ReplicaReads)
	v["replica.stale_reads"] = float64(ws.ReplicaStaleReads)
	v["replica.invals"] = float64(ws.ReplicaInvals)
	v["replica.fills"] = float64(ws.ReplicaFills)
	v["heat.sampled"] = float64(ws.HeatSampled)
	v["pulse.ticks"] = float64(ws.Pulses)
	if ws.Latencies.Enabled {
		v["runtime.parcel_exec_p50_ns"] = float64(ws.Latencies.ParcelExec.P50Ns)
		v["runtime.parcel_exec_p99_ns"] = float64(ws.Latencies.ParcelExec.P99Ns)
		v["migrate.total_p50_ns"] = float64(ws.Latencies.MigTotal.P50Ns)
	}
}

// hostCost records the simulator's host cost over a timed section:
// events per op, host ns per event, allocations per event and the GC's
// share of CPU.
func hostCost(v vals, events uint64, ops int64, wall time.Duration, g0, g1 gcSample) {
	v["netsim.events_per_op"] = ratio(float64(events), float64(ops))
	v["netsim.host_ns_per_event"] = ratio(float64(wall.Nanoseconds()), float64(events))
	v["runtime.allocs_per_event"] = ratio(g1.allocs-g0.allocs, float64(events))
	v["runtime.gc_cpu_share"] = ratio(g1.gcCPU-g0.gcCPU, g1.totalCPU-g0.totalCPU)
}
