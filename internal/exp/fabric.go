package exp

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"nmvgas/internal/netsim"
	"nmvgas/internal/parcel"
	"nmvgas/internal/runtime"
	"nmvgas/internal/stats"
)

func init() {
	register("F17", "Fig. 17: DES scaling vs world size — events/sec at 1024+ localities", f17Scaling)
	register("F18", "Fig. 18: translation/forwarding cost vs topology distance (nm/sw crossover)", f18DistanceCrossover)
}

// f17Workload drives a hot-potato parcel storm: every rank seeds one
// potato that relays rank-to-rank for ttl hops, next hop chosen by an
// LCG carried in the payload. The work is entirely handler-driven — no
// driver round-trips — so the event population spreads across all
// ranks. Returns (events executed, parcels run, wall-clock).
//
// ParcelsRun is the golden counter: exactly ranks × (ttl+1) handler
// runs, independent of wall-clock — the CI scaling smoke checks that
// identity to catch lost or duplicated parcels.
func f17Workload(w *runtime.World, ttl int) (events uint64, parcels int64, wall time.Duration) {
	ranks := w.Config().Ranks
	var dead atomic.Int64 // potatoes that exhausted their ttl (handler-side, any rank)
	relay := w.Register("relay", func(c *runtime.Ctx) {
		p := c.P.Payload
		hops := parcel.U64(p, 0)
		if hops == 0 {
			dead.Add(1)
			return
		}
		state := parcel.U64(p, 8)*6364136223846793005 + 1442695040888963407
		next := int(state>>33) % c.Ranks()
		buf := parcel.PutU64(nil, hops-1)
		buf = parcel.PutU64(buf, state)
		c.Call(c.World().LocalityGVA(next), c.P.Action, buf)
	})
	w.Start()
	for r := 0; r < ranks; r++ {
		buf := parcel.PutU64(nil, uint64(ttl))
		buf = parcel.PutU64(buf, uint64(r+1)*0x9E3779B9)
		w.Proc(r).Call(w.LocalityGVA((r+1)%ranks), relay, buf)
	}
	start := time.Now()
	// Stride-checked drain on the hot path: probing the completion
	// counter every event costs a closure call per event, so it is
	// checked every 4096 events. Overshoot is irrelevant — the trailing
	// Run() drains residual acks either way, so events/golden counts are
	// stable.
	w.Engine().RunUntilStride(func() bool { return dead.Load() >= int64(ranks) }, 4096)
	w.Engine().Run()
	wall = time.Since(start)
	events = w.Engine().Processed()
	parcels = w.Stats().ParcelsRun
	w.Stop()
	return events, parcels, wall
}

// ScalePoint is one measured row of the F17 scaling sweep in
// machine-readable form (vgasbench -scale-json emits these as
// BENCH_PR8-style records).
type ScalePoint struct {
	Localities    int     `json:"localities"`
	TTL           int     `json:"ttl"`
	Events        uint64  `json:"events"`
	GoldenParcels int64   `json:"golden_parcels"`
	WallNS        int64   `json:"wall_ns"`
	EventsPerSec  float64 `json:"events_per_sec"`
	NSPerEvent    float64 `json:"ns_per_event"`
}

// ScaleBench runs the hot-potato storm across the configured world-size
// sweep and returns the raw measurements. GoldenParcels is exactly
// Localities × (TTL+1); the wall-clock columns are host measurements.
func ScaleBench(o Options) []ScalePoint {
	rankSweep := []int{256, 1024, 2048, 4096}
	ttl := 32
	if o.Quick {
		rankSweep = []int{64, 256}
		ttl = 8
	}
	if len(o.Localities) > 0 {
		rankSweep = o.Localities
	}
	topoSpec := o.Topology
	if topoSpec == "" {
		topoSpec = "fat-tree"
	}
	var out []ScalePoint
	for _, ranks := range rankSweep {
		w := newWorld(spaceNM(), ranks, func(c *runtime.Config) {
			c.Topology = topoFor(topoSpec, ranks)
		})
		events, parcels, wall := f17Workload(w, ttl)
		pt := ScalePoint{
			Localities: ranks, TTL: ttl,
			Events: events, GoldenParcels: parcels,
			WallNS: wall.Nanoseconds(),
		}
		if wall > 0 && events > 0 {
			pt.EventsPerSec = float64(events) / wall.Seconds()
			pt.NSPerEvent = float64(wall.Nanoseconds()) / float64(events)
		}
		out = append(out, pt)
	}
	return out
}

// f17Scaling sweeps world size on a fat-tree fabric. The golden column
// must equal ranks × (ttl+1); events/sec and ns/event are wall-clock
// measurements of the single-threaded engine.
func f17Scaling(o Options) *stats.Table {
	tb := stats.NewTable("Fig. 17: DES scaling vs world size, hot-potato storm on a fat-tree",
		"ranks", "ttl", "events", "golden_parcels", "wall_ms", "kevents_per_s", "ns_per_event")
	for _, pt := range ScaleBench(o) {
		tb.AddRow(pt.Localities, pt.TTL, int(pt.Events), pt.GoldenParcels,
			float64(pt.WallNS)/1e6, pt.EventsPerSec/1e3, pt.NSPerEvent)
	}
	return tb
}

// spaceNM returns the network-managed space spec.
func spaceNM() runtime.SpaceSpec {
	for _, sp := range spaces {
		if sp.Mode == runtime.AGASNM {
			return sp
		}
	}
	panic("exp: no agas-nm space registered")
}

// topoFor builds the fabric named by spec over the given rank count
// (bare "fat-tree" defaults to √ranks-sized leaves, two leaves per pod,
// 2× oversubscription per aggregation level).
func topoFor(spec string, ranks int) netsim.Topology {
	t, err := netsim.ParseTopology(spec, ranks)
	if err != nil {
		panic(err)
	}
	return t
}

// DistanceCosts measures the per-distance translation/forwarding cost
// on a 64-rank fabric built from the given topology spec (empty =
// balanced fat-tree, whose leaves of 8 expose hop distances 1, 3, and
// 5): a direct put at each distance under static addressing, and a
// stale-translation put whose repair — host NACK + re-route for the
// software space, in-network NIC forward for the network-managed space —
// spans that distance. Exported so the demo's -topology tour can print
// the same table the F18 experiment records.
func DistanceCosts(spec string) *stats.Table {
	const ranks = 64
	if spec == "" {
		spec = "fat-tree" // leaf=8, pod=2: 16 ranks per pod
	}
	topo, err := netsim.ParseTopology(spec, ranks)
	if err != nil {
		panic(err)
	}
	tb := stats.NewTable(
		"translation/forwarding cost vs "+topo.Name()+" distance (64 ranks)",
		"hops", "tier", "pgas_put_us", "sw_stale_us", "nm_stale_us")
	mut := func(c *runtime.Config) { c.Topology = topo }
	// Sender is rank 0; the home is the nearest other rank, so the
	// allocation round trip is off the probed path. The block then
	// migrates to an owner at each distinct hop distance the fabric
	// exposes (first representative per distance, scanning up).
	home := 1
	for r := 2; r < ranks; r++ {
		if topo.Hops(0, r) < topo.Hops(0, home) {
			home = r
		}
	}
	type tier struct{ hops, owner int }
	var cases []tier
	seen := map[int]bool{}
	for r := 1; r < ranks; r++ {
		if r == home {
			continue
		}
		if h := topo.Hops(0, r); !seen[h] {
			seen[h] = true
			cases = append(cases, tier{h, r})
		}
	}
	sort.Slice(cases, func(i, j int) bool { return cases[i].hops < cases[j].hops })
	for _, cse := range cases {
		hops := cse.hops
		row := map[runtime.Mode]float64{}
		for _, sp := range spaces {
			w := newWorld(sp, ranks, mut)
			w.Start()
			var cost netsim.VTime
			if sp.Caps.Migration {
				lay, err := w.AllocLocal(home, 256, 1)
				if err != nil {
					panic(err)
				}
				g := lay.BlockAt(0)
				w.MustWait(w.Proc(0).Put(g, make([]byte, 32))) // warm translation state
				w.MustWait(w.Proc(0).Migrate(g, cse.owner))
				// First post-migration put from the sender: stale state,
				// full repair on the critical path.
				cost = timeOp(w, func() *runtime.LCORef {
					return w.Proc(0).Put(g, make([]byte, 32))
				})
			} else {
				lay, err := w.AllocLocal(cse.owner, 256, 1)
				if err != nil {
					panic(err)
				}
				cost = timeOp(w, func() *runtime.LCORef {
					return w.Proc(0).Put(lay.BlockAt(0), make([]byte, 32))
				})
			}
			row[sp.Mode] = cost.Micros()
			w.Stop()
		}
		tb.AddRow(hops, tierLabel(topo.Name(), hops), row[runtime.PGAS], row[runtime.AGASSW], row[runtime.AGASNM])
	}
	return tb
}

// tierLabel names a hop distance in the fabric's own vocabulary.
func tierLabel(topoName string, hops int) string {
	switch {
	case strings.HasPrefix(topoName, "fat-tree"):
		switch hops {
		case 1:
			return "intra-leaf"
		case 3:
			return "intra-pod"
		case 5:
			return "inter-pod"
		}
	case strings.HasPrefix(topoName, "dragonfly"):
		switch hops {
		case 1:
			return "intra-group"
		case 3:
			return "inter-group"
		}
	case strings.HasPrefix(topoName, "two-tier"):
		switch hops {
		case 1:
			return "intra-pod"
		case 3:
			return "inter-pod"
		}
	}
	return fmt.Sprintf("%d-hop", hops)
}

// f18DistanceCrossover records the distance table: the software space's
// stale-put penalty grows with the host-forward detour's hop distance,
// while in-network forwarding keeps the network-managed space's penalty
// close to the direct cost at every tier.
func f18DistanceCrossover(Options) *stats.Table {
	return DistanceCosts("")
}
