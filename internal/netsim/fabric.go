package netsim

import (
	"fmt"

	"nmvgas/internal/gas"
)

// FabricConfig configures a fabric build.
type FabricConfig struct {
	Ranks int
	Model Model
	// GVARouting enables NIC-side translation on every NIC (the
	// network-managed mode).
	GVARouting bool
	// Policy applies to all NICs when GVARouting is on.
	Policy Policy
	// NICTableCap bounds each NIC's translation table (0 = unbounded).
	// The paper's NIC tables are finite; the capacity cliff is part of
	// the evaluation.
	NICTableCap int
	// Topology defaults to Crossbar when nil.
	Topology Topology
	// Faults injects seeded delivery faults into every link; the zero
	// plan is a perfect network.
	Faults FaultPlan
}

// Liveness lets the runtime's membership layer tell the fabric which
// localities are reachable. Down is the ground truth at the fabric
// boundary (the link is dead, whether or not anyone has noticed);
// DeadHint is the runtime's declared belief, which upgrades silent loss
// into a clean NACK-with-hint. Nil means every locality is up forever.
type Liveness interface {
	// Down reports whether rank's link is down (crashed, possibly not
	// yet declared dead). Traffic to or from a down rank is swallowed.
	Down(rank int) bool
	// DeadHint reports whether rank has been declared dead by the
	// membership layer, and the surrogate/home rank to redirect to.
	DeadHint(rank int) (hint int, dead bool)
	// Epoch returns the current membership epoch for stamping control
	// pushes.
	Epoch() uint64
	// Rehome returns the recovered owner of a block whose previous owner
	// died (a promoted replica master or a re-homed directory entry),
	// letting in-flight traffic redirect at the NIC instead of bouncing.
	Rehome(b gas.BlockID) (owner int, ok bool)
}

// Fabric is a full-crossbar network of NICs driven by one discrete-event
// engine: every pair of localities is directly connected, with per-NIC
// transmit occupancy and a uniform per-hop wire latency.
type Fabric struct {
	Eng   *Engine
	Model Model
	Topo  Topology
	NICs  []*NIC
	// Faults is nil on a perfect fabric.
	Faults *FaultInjector
	// Live is nil unless the runtime wires in membership.
	Live Liveness
}

// SetLiveness installs the runtime's membership view on the fabric.
func (f *Fabric) SetLiveness(lv Liveness) { f.Live = lv }

// BumpEpoch raises every NIC translation table's trusted membership
// epoch, fencing all cached entries installed under older epochs.
func (f *Fabric) BumpEpoch(epoch uint64) {
	for _, n := range f.NICs {
		n.Table.BumpEpoch(epoch)
	}
}

// NewFabric builds a fabric with cfg.Ranks NICs on the given engine.
func NewFabric(eng *Engine, cfg FabricConfig) *Fabric {
	if cfg.Ranks <= 0 {
		panic(fmt.Sprintf("netsim: fabric with %d ranks", cfg.Ranks))
	}
	topo := cfg.Topology
	if topo == nil {
		topo = Crossbar{}
	}
	f := &Fabric{
		Eng:    eng,
		Model:  cfg.Model,
		Topo:   topo,
		NICs:   make([]*NIC, cfg.Ranks),
		Faults: NewFaultInjector(cfg.Faults),
	}
	for r := range f.NICs {
		f.NICs[r] = &NIC{
			Rank:       r,
			GVARouting: cfg.GVARouting,
			Policy:     cfg.Policy,
			Table:      NewTransTable(cfg.NICTableCap),
			routes:     make(map[gas.BlockID]int),
			readRoutes: make(map[gas.BlockID]int),
			fab:        f,
		}
	}
	return f
}

// FaultSnapshot returns the fabric's injected-fault counters.
func (f *Fabric) FaultSnapshot() FaultStats { return f.Faults.Snapshot() }

// NIC returns the interface of the given rank.
func (f *Fabric) NIC(rank int) *NIC { return f.NICs[rank] }

// Ranks returns the number of localities on the fabric.
func (f *Fabric) Ranks() int { return len(f.NICs) }

// TotalStats sums per-NIC counters across the fabric.
func (f *Fabric) TotalStats() NICStats {
	var t NICStats
	for _, n := range f.NICs {
		t.Sent += n.Stats.Sent
		t.Received += n.Stats.Received
		t.BytesTx += n.Stats.BytesTx
		t.BytesRx += n.Stats.BytesRx
		t.Forwards += n.Stats.Forwards
		t.Nacks += n.Stats.Nacks
		t.TableUpdatesRx += n.Stats.TableUpdatesRx
		t.ScatterSplits += n.Stats.ScatterSplits
		t.ScatterForwards += n.Stats.ScatterForwards
		t.DMADelivered += n.Stats.DMADelivered
		t.HostDelivered += n.Stats.HostDelivered
		t.Dropped += n.Stats.Dropped
		t.Duplicated += n.Stats.Duplicated
		t.Delayed += n.Stats.Delayed
		t.TableLost += n.Stats.TableLost
		t.LoopNacks += n.Stats.LoopNacks
		t.DownDrops += n.Stats.DownDrops
		t.DeadNacks += n.Stats.DeadNacks
		t.StaleEpochDrops += n.Stats.StaleEpochDrops
	}
	return t
}
