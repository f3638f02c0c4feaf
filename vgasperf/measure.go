package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit. The two lists below
// are the benchmark's schema: BENCHMARK.json at the repository root
// lists the same names with the same units (the package tests enforce
// it), and every run emits every metric of the list its --trace mode
// selects.
type metricDef struct{ name, unit string }

// e2eMetrics are the end-to-end figures a runtime user sees, measured
// with tracing off, reported by `--trace 0` for every workload.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"cpu_cost_per_op", "ref-events/op"},
	{"heap_live_mb", "MiB"},
}

// layerMetrics are reported by `--trace 1`. A metric a workload does not
// exercise reads 0 (README.md lists which workload moves which metric).
var layerMetrics = []metricDef{
	// Per-workload headline figures from the plain pass.
	{"ops_per_s", "ops/s"},
	{"ops_per_cpu_s", "ops/cpu-s"},
	{"ref.ns_per_event", "ns"},
	{"put_per_s", "ops/s"},
	{"parcel_per_s", "msgs/s"},
	{"coalesced_per_s", "msgs/s"},
	{"get_p50_us", "us"},
	{"get_p99_us", "us"},
	{"get_samples", "count"},
	{"sim_ops_per_ms", "ops/ms"},
	{"fail_ratio", "ratio"},
	// parcel
	{"parcel.encode_ns", "ns"},
	{"parcel.decode_ns", "ns"},
	// netsim
	{"netsim.events_per_op", "events/op"},
	{"netsim.host_ns_per_event", "ns"},
	{"netsim.queue_depth_mean", "events"},
	{"netsim.queue_depth_max", "events"},
	{"netsim.event_ns", "ns"},
	{"netsim.transtable_lookup_ns", "ns"},
	{"netsim.transtable_update_ns", "ns"},
	{"netsim.msgs_per_op", "msgs/op"},
	{"netsim.bytes_per_op", "B/op"},
	{"netsim.nic_forwards", "count"},
	{"netsim.nic_nacks", "count"},
	{"netsim.table_updates", "count"},
	// runtime exec/net
	{"runtime.put_issue_ns", "ns"},
	{"runtime.put_window_wait_ns", "ns"},
	{"runtime.invoke_ns", "ns"},
	{"runtime.drain_wait_ns", "ns"},
	{"runtime.put.allocs_per_op", "allocs/op"},
	{"runtime.put.bytes_per_op", "B/op"},
	{"runtime.get.allocs_per_op", "allocs/op"},
	{"runtime.get.bytes_per_op", "B/op"},
	{"runtime.parcel.allocs_per_op", "allocs/op"},
	{"runtime.parcel.bytes_per_op", "B/op"},
	{"runtime.coalesced.allocs_per_op", "allocs/op"},
	{"runtime.coalesced.bytes_per_op", "B/op"},
	{"runtime.allocs_per_event", "allocs/event"},
	{"runtime.gc_cpu_share", "ratio"},
	{"runtime.parcel_exec_p50_ns", "ns"},
	{"runtime.parcel_exec_p99_ns", "ns"},
	{"runtime.host_forwards", "count"},
	{"runtime.host_nacks", "count"},
	{"runtime.migration_queued", "count"},
	// runtime coalescer
	{"coalesce.flushall_ns", "ns"},
	{"coalesce.flush_delay_p50_ns", "ns"},
	// runtime reliable
	{"reliable.tracked", "count"},
	{"reliable.retransmits", "count"},
	{"reliable.dups_suppressed", "count"},
	{"reliable.abandoned", "count"},
	{"reliable.unacked_end", "count"},
	{"reliable.retransmit_ratio", "ratio"},
	// runtime migrate/replicate, agas
	{"migrate.completed", "count"},
	{"migrate.total_p50_ns", "ns"},
	{"replica.reads", "count"},
	{"replica.stale_reads", "count"},
	{"replica.invals", "count"},
	{"replica.fills", "count"},
	{"replica.hit_share", "ratio"},
	// loadbal, heat, pulse
	{"loadbal.step_us", "us"},
	{"loadbal.moves", "count"},
	{"loadbal.move_failures", "count"},
	{"loadbal.move_success_ratio", "ratio"},
	{"loadbal.replications", "count"},
	{"loadbal.imbalance", "ratio"},
	{"heat.sampled", "count"},
	{"pulse.ticks", "count"},
	// trace/metrics
	{"obs.traced_overhead", "ratio"},
}

// vals is one round's (or one pass's) measured figures, keyed by metric
// name. Rounds report whatever their workload measures; absent names
// are reported as 0.
type vals map[string]float64

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the p-th percentile (0..100) of sorted xs by the
// nearest-rank rule.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if k < 0 {
		k = 0
	}
	return sorted[k]
}

// medianVals reduces rounds to the per-metric median across rounds.
func medianVals(rounds []vals) vals {
	keys := map[string][]float64{}
	for _, r := range rounds {
		for k, v := range r {
			keys[k] = append(keys[k], v)
		}
	}
	out := vals{}
	for k, xs := range keys {
		out[k] = median(xs)
	}
	return out
}

// meanVals reduces parts to the per-metric mean.
func meanVals(parts []vals) vals {
	out := vals{}
	for _, r := range parts {
		for k, v := range r {
			out[k] += v / float64(len(parts))
		}
	}
	return out
}

// ratio is a/b, or 0 when b is 0 (a ratio with no base is reported as
// no activity).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// liveHeapMB forces a collection and returns the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// allocMark is a MemStats snapshot taken at a phase boundary.
type allocMark struct{ mallocs, bytes uint64 }

func markAllocs() allocMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocMark{ms.Mallocs, ms.TotalAlloc}
}

// perOp records allocs/op and bytes/op since m under the given phase
// prefix (e.g. "runtime.put").
func (m allocMark) perOp(v vals, prefix string, ops int) {
	now := markAllocs()
	v[prefix+".allocs_per_op"] = ratio(float64(now.mallocs-m.mallocs), float64(ops))
	v[prefix+".bytes_per_op"] = ratio(float64(now.bytes-m.bytes), float64(ops))
}

// gcSample reads the runtime's cumulative GC CPU, total CPU and heap
// allocation counters (runtime/metrics).
type gcSample struct{ gcCPU, totalCPU, allocs float64 }

var gcSampleNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:objects",
}

func readGC() gcSample {
	s := make([]metrics.Sample, len(gcSampleNames))
	for i, n := range gcSampleNames {
		s[i].Name = n
	}
	metrics.Read(s)
	f := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return gcSample{f(0), f(1), f(2)}
}

// checks collects correctness failures. perturb names one check whose
// expected value is deliberately made wrong, so tests can prove that
// each check is wired into the run and fires.
type checks struct {
	perturb string
	failed  []string
	names   map[string]bool // every check evaluated
}

func (c *checks) saw(name string) {
	if c.names == nil {
		c.names = map[string]bool{}
	}
	c.names[name] = true
}

// eq checks got == want for the named check.
func (c *checks) eq(name string, got, want int64) {
	c.saw(name)
	if name == c.perturb {
		want++
	}
	if got != want {
		c.failed = append(c.failed, fmt.Sprintf("%s: got %d, want %d", name, got, want))
	}
}

// same checks that two fingerprints (or other opaque values) match.
func (c *checks) same(name string, got, want uint64) {
	c.saw(name)
	if name == c.perturb {
		want ^= 1
	}
	if got != want {
		c.failed = append(c.failed, fmt.Sprintf("%s: got %016x, want %016x", name, got, want))
	}
}

// bytesEq checks that got holds exactly want.
func (c *checks) bytesEq(name string, got, want []byte) {
	c.saw(name)
	if name == c.perturb {
		w := append([]byte(nil), want...)
		w[0] ^= 0xFF
		want = w
	}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			c.failed = append(c.failed, fmt.Sprintf("%s: byte %d differs", name, i))
			return
		}
	}
}

// err returns the collected failures as one error, or nil.
func (c *checks) err() error {
	if len(c.failed) == 0 {
		return nil
	}
	n := len(c.failed)
	shown := c.failed
	if n > 5 {
		shown = shown[:5]
	}
	return fmt.Errorf("%d correctness check(s) failed: %v", n, shown)
}

// since returns the elapsed time since start in nanoseconds.
func since(start time.Time) float64 { return float64(time.Since(start).Nanoseconds()) }

// cpuTime returns the CPU time the process has used so far, all threads
// (user + system). Unlike wall time it excludes time the host stole from
// the virtual CPUs, so CPU-based rates hold still on a shared machine.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
