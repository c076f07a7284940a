// Package netsim is a deterministic discrete-event simulator of a
// GPU-cluster interconnect. Rank programs run as goroutines scheduled
// cooperatively by an engine that always resumes the runnable rank with
// the smallest virtual clock, so resource arbitration is causally
// correct and runs are bit-reproducible.
//
// Data movement is real — packet payloads are actual byte slices copied
// between ranks — while elapsed time comes from a cost model of a
// Summit-like machine: per-node ingress/egress NICs and an intra-node
// bus modeled as serialized bandwidth servers with wire latency, plus a
// fabric-level congestion factor that degrades effective bandwidth as
// the number of outstanding inter-node transfers grows (the substitute
// for the adaptive-routing collisions the paper observes when the
// default all-to-all floods the network; see DESIGN.md).
package netsim

// Config describes the simulated machine. The zero value is not valid;
// start from Summit.
type Config struct {
	// Nodes is the number of nodes; GPUsPerNode ranks are placed per node
	// in block order (rank r lives on node r/GPUsPerNode).
	Nodes       int
	GPUsPerNode int

	// InterBW is the aggregate inter-node bandwidth per node and
	// direction in bytes/s (Summit: two IB lanes, 25 GB/s total).
	InterBW float64
	// IntraBW is the intra-node bus bandwidth in bytes/s (50 GB/s).
	IntraBW float64
	// LocalBW is the device-local copy bandwidth for rank-to-self
	// transfers in bytes/s (HBM2-class, 900 GB/s).
	LocalBW float64

	// InterLatency and IntraLatency are per-message wire latencies in
	// seconds.
	InterLatency float64
	IntraLatency float64

	// SendOverhead is the host-side injection overhead per message (the
	// "o" of the LogP family), charged to the sender's clock.
	SendOverhead float64

	// ProtoOverheadInter and ProtoOverheadIntra are the per-message NIC
	// (resp. bus) occupancy of two-sided rendezvous protocol processing:
	// the progression of RTS/CTS and unexpected-message handling that a
	// CPU-driven transport pays per large message and that one-sided
	// GPU-direct RDMA avoids (§V). They gate the message rate of the
	// two-sided all-to-alls at scale — the mechanism behind Fig. 3.
	ProtoOverheadInter float64
	ProtoOverheadIntra float64

	// RMAOverhead is the per-operation NIC processing cost of one-sided
	// puts (RDMA work-queue handling); much smaller than the two-sided
	// protocol overheads but not free.
	RMAOverhead float64

	// Tracer, when non-nil, receives one event per transfer at delivery
	// time (virtual timestamps). For debugging and timeline dumps; it
	// must not call back into the engine.
	Tracer func(TraceEvent) `json:"-"`

	// Faults, when non-nil, attaches a deterministic fault-injection plan
	// to the run (see FaultPlan). nil keeps the engine on the exact
	// fault-free code paths — virtual times are byte-identical to a build
	// without the fault layer.
	Faults *FaultPlan `json:"-"`

	// FaultObserver, when non-nil, receives one FaultEvent per injected
	// fault as the engine decides it. Like Tracer it is called serially,
	// in processing order, on whichever goroutine holds the baton, so
	// observation order is deterministic and observing never perturbs
	// virtual time. It must not call back into the engine.
	FaultObserver func(FaultEvent) `json:"-"`

	// MatchCost is the receiver-side cost of scanning one entry of the
	// unexpected-message queue when matching a two-sided receive, and
	// MatchQueueCap bounds the queue length the flow control lets build
	// up. Deep queues are what degrade the default all-to-all as the
	// rank count grows (Fig. 3); one-sided puts bypass matching.
	MatchCost     float64
	MatchQueueCap int

	// Parallel has no effect: the simulator has one scheduler. The field
	// stays only because benchmark/ still sets it; the benchmark change
	// of ROADMAP item 15 removes it together with benchmark/'s
	// parallelPairs and its netsim.parallel_speedup and
	// parallel_cpu_ratio metrics, which read about 1.0 until then.
	Parallel bool
}

// Summit returns the machine model used throughout the reproduction,
// sized for the given number of nodes (6 GPUs each, as in §VI).
func Summit(nodes int) Config {
	return Config{
		Nodes:              nodes,
		GPUsPerNode:        6,
		InterBW:            25e9,
		IntraBW:            50e9,
		LocalBW:            900e9,
		InterLatency:       1.5e-6,
		IntraLatency:       0.7e-6,
		SendOverhead:       0.4e-6,
		ProtoOverheadInter: 2.5e-6,
		ProtoOverheadIntra: 0.6e-6,
		RMAOverhead:        0.7e-6,
		MatchCost:          250e-9,
		MatchQueueCap:      256,
	}
}

// Ranks returns the total rank count of the machine.
func (c Config) Ranks() int { return c.Nodes * c.GPUsPerNode }

// NodeOf returns the node hosting a rank.
func (c Config) NodeOf(rank int) int { return rank / c.GPUsPerNode }

func (c Config) validate() {
	switch {
	case c.Nodes <= 0 || c.GPUsPerNode <= 0:
		panic("netsim: node and GPU counts must be positive")
	case c.InterBW <= 0 || c.IntraBW <= 0 || c.LocalBW <= 0:
		panic("netsim: bandwidths must be positive")
	case c.InterLatency < 0 || c.IntraLatency < 0 || c.SendOverhead < 0:
		panic("netsim: latencies must be non-negative")
	}
}
