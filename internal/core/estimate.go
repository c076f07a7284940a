package core

import (
	"math"
	"strconv"

	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/netsim"
)

// The analytic exchange cost model: a roofline-style prediction of each
// reshape's all-to-all time on the simulated machine, from the same box
// decompositions the plan communicates with. The analyze layer and the
// bench artifacts report measured/predicted per reshape — a delta close
// to 1 says the exchange runs at the speed the fabric allows; a large
// delta points at protocol, matching, or scheduling overheads the pure
// bandwidth/latency terms do not contain.

// ExchangeEstimate is the model's prediction for one reshape.
type ExchangeEstimate struct {
	// Label matches the reshape's metric label (fwd0..3, or fwd0..1 in
	// the PencilIO configuration).
	Label string `json:"label"`
	// Wire volumes per fabric level after nominal compression, summed
	// over all ranks (bytes).
	InterBytes int64 `json:"inter_bytes"`
	IntraBytes int64 `json:"intra_bytes"`
	LocalBytes int64 `json:"local_bytes"`
	// Bottleneck terms (seconds): the busiest NIC direction, the busiest
	// node bus, and the slowest rank's local copies, each including the
	// per-message path occupancy of the backend's protocol.
	InterTime float64 `json:"inter_time"`
	IntraTime float64 `json:"intra_time"`
	LocalTime float64 `json:"local_time"`
	// Predicted is the modeled exchange time: the slowest of the three
	// resource terms, plus per-rank injection overhead and wire latency.
	Predicted float64 `json:"predicted"`
}

// PredictExchanges runs the cost model for every forward reshape of a
// plan with the given options (elemBytes is the pipeline element size:
// 16 for complex128, 8 for complex64). The model is a lower bound by
// construction — it books only serialization, per-message protocol
// occupancy, injection overhead, and one wire latency; queueing,
// matching, fences, and pipeline stalls are what measurements add on
// top.
func PredictExchanges(cfg netsim.Config, n [3]int, opts Options, elemBytes int) []ExchangeEstimate {
	opts = opts.withDefaults()
	p := cfg.Ranks()
	s := opts.SimScale
	ns := [3]int{s * n[0], s * n[1], s * n[2]}
	var boxes [5][]grid.Box
	for st := range boxes {
		boxes[st] = stageBoxes(ns, st, p)
	}

	ratio := 1.0
	if opts.Backend.compressed() {
		ratio = opts.Method.Ratio()
	}
	oneSided := opts.Backend == BackendOSC || opts.Backend == BackendCompressed

	type stagePair struct {
		from, to int
	}
	var stages []stagePair
	if opts.PencilIO {
		stages = []stagePair{{1, 2}, {2, 3}}
	} else {
		stages = []stagePair{{0, 1}, {1, 2}, {2, 3}, {3, 4}}
	}

	out := make([]ExchangeEstimate, 0, len(stages))
	for si, st := range stages {
		from, to := boxes[st.from], boxes[st.to]
		e := ExchangeEstimate{Label: "fwd" + strconv.Itoa(si)}
		egress := make([]float64, cfg.Nodes)  // seconds on each node's egress NIC
		ingress := make([]float64, cfg.Nodes) // seconds on each node's ingress NIC
		bus := make([]float64, cfg.Nodes)     // seconds on each node's bus
		maxLocal := 0.0
		maxMsgs := 0
		msgs := 0
		for src := 0; src < p; src++ {
			srcNode := cfg.NodeOf(src)
			perRank := 0
			for dst := 0; dst < p; dst++ {
				cnt := grid.Intersect(from[src], to[dst]).Count()
				if cnt == 0 {
					continue
				}
				raw := cnt * elemBytes
				wire := float64(raw) / ratio
				switch dstNode := cfg.NodeOf(dst); {
				case src == dst:
					e.LocalBytes += int64(wire)
					if t := wire / cfg.LocalBW; maxLocal < t {
						maxLocal = t
					}
				case srcNode == dstNode:
					e.IntraBytes += int64(wire)
					perMsg := cfg.ProtoOverheadIntra
					if oneSided {
						perMsg = cfg.RMAOverhead
					} else if int(wire) <= mpi.DefaultEagerThreshold {
						perMsg = 0
					}
					bus[srcNode] += wire/cfg.IntraBW + perMsg
					perRank++
				default:
					e.InterBytes += int64(wire)
					perMsg := cfg.ProtoOverheadInter
					if oneSided {
						perMsg = cfg.RMAOverhead
					} else if int(wire) <= mpi.DefaultEagerThreshold {
						perMsg = 0
					}
					t := wire/cfg.InterBW + perMsg
					egress[srcNode] += t
					ingress[dstNode] += t
					perRank++
				}
			}
			msgs += perRank
			if perRank > maxMsgs {
				maxMsgs = perRank
			}
		}
		for nd := 0; nd < cfg.Nodes; nd++ {
			if egress[nd] > e.InterTime {
				e.InterTime = egress[nd]
			}
			if ingress[nd] > e.InterTime {
				e.InterTime = ingress[nd]
			}
			if bus[nd] > e.IntraTime {
				e.IntraTime = bus[nd]
			}
		}
		e.LocalTime = maxLocal
		latency := 0.0
		switch {
		case e.InterBytes > 0:
			latency = cfg.InterLatency
		case e.IntraBytes > 0:
			latency = cfg.IntraLatency
		}
		e.Predicted = math.Max(e.InterTime, math.Max(e.IntraTime, e.LocalTime)) +
			float64(maxMsgs)*cfg.SendOverhead + latency
		out = append(out, e)
	}
	return out
}
