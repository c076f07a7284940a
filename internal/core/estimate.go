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
// decompositions the plan communicates with. It is the one model in the
// tree — the autotuner ranks candidates with Roofline plus its own
// Bruck and compression-kernel terms — and the analyze layer and the
// bench artifacts report measured/predicted per reshape. It books only
// serialization, per-message protocol occupancy, injection overhead and
// one wire latency, so a delta close to 1 says the exchange runs at the
// speed the fabric allows. It is not a bound in either direction: in
// the committed BENCH_fft.json the uncompressed reshapes measure at
// 0.525–0.899 of the prediction in 14 of 16 cases (1.108 and 1.128 in
// the other two), and the compressed ones, whose kernel time the model
// does not book, at 1.585–2.327. Stating and gating its accuracy is
// ROADMAP 5(b).

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

// Traffic is one forward reshape's exchange: Bytes(dst, src) is the raw
// (uncompressed) payload rank src sends rank dst; 0 carries no message.
type Traffic struct {
	Label string
	Bytes func(dst, src int) int
}

// ForwardTraffic returns the traffic of every forward reshape of an n
// transform over p ranks on the simScale-enlarged grid (elemBytes is the
// pipeline element size: 16 for complex128, 8 for complex64). Each
// stage's send lists are written once into a dense p×p matrix, so
// pricing it under many choices does no box arithmetic.
func ForwardTraffic(p int, n [3]int, simScale int, pencilIO bool, elemBytes int) []Traffic {
	s := max(simScale, 1)
	ns := [3]int{s * n[0], s * n[1], s * n[2]}
	stages := [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}}
	if pencilIO {
		stages = stages[1:3]
	}
	out := make([]Traffic, len(stages))
	for si, st := range stages {
		from, to := stageDecomp(ns, st[0], p), stageDecomp(ns, st[1], p)
		m := make([]int, p*p)
		for src := 0; src < p; src++ {
			for _, t := range grid.PlanFor(src, from, to).Send {
				m[src*p+t.Rank] = elemBytes * t.Count
			}
		}
		out[si] = Traffic{Label: "fwd" + strconv.Itoa(si), Bytes: func(dst, src int) int { return m[src*p+dst] }}
	}
	return out
}

// Roofline prices one exchange of the traffic matrix bytes under choice
// (the Label is the caller's). The compressed backends ship the nominal
// ratio of choice.Method; the one-sided ones pay the RMA occupancy per
// message, the two-sided ones the rendezvous occupancy above the eager
// threshold.
func Roofline(cfg netsim.Config, bytes func(dst, src int) int, choice ExchangeChoice) ExchangeEstimate {
	p := cfg.Ranks()
	ratio := 1.0
	if choice.Backend.compressed() {
		ratio = choice.Method.Ratio()
	}
	oneSided := choice.Backend.Row().OneSided
	perMsg := func(wire float64, proto float64) float64 {
		switch {
		case oneSided:
			return cfg.RMAOverhead
		case int(wire) <= mpi.DefaultEagerThreshold:
			return 0
		}
		return proto
	}

	var e ExchangeEstimate
	egress := make([]float64, cfg.Nodes)  // seconds on each node's egress NIC
	ingress := make([]float64, cfg.Nodes) // seconds on each node's ingress NIC
	bus := make([]float64, cfg.Nodes)     // seconds on each node's bus
	maxMsgs := 0
	for src := 0; src < p; src++ {
		srcNode := cfg.NodeOf(src)
		perRank := 0
		for dst := 0; dst < p; dst++ {
			raw := bytes(dst, src)
			if raw == 0 {
				continue
			}
			wire := float64(raw) / ratio
			switch dstNode := cfg.NodeOf(dst); {
			case src == dst:
				e.LocalBytes += int64(wire)
				e.LocalTime = math.Max(e.LocalTime, wire/cfg.LocalBW)
			case srcNode == dstNode:
				e.IntraBytes += int64(wire)
				bus[srcNode] += wire/cfg.IntraBW + perMsg(wire, cfg.ProtoOverheadIntra)
				perRank++
			default:
				e.InterBytes += int64(wire)
				t := wire/cfg.InterBW + perMsg(wire, cfg.ProtoOverheadInter)
				egress[srcNode] += t
				ingress[dstNode] += t
				perRank++
			}
		}
		maxMsgs = max(maxMsgs, perRank)
	}
	for nd := 0; nd < cfg.Nodes; nd++ {
		e.InterTime = math.Max(e.InterTime, math.Max(egress[nd], ingress[nd]))
		e.IntraTime = math.Max(e.IntraTime, bus[nd])
	}
	latency := 0.0
	switch {
	case e.InterBytes > 0:
		latency = cfg.InterLatency
	case e.IntraBytes > 0:
		latency = cfg.IntraLatency
	}
	e.Predicted = math.Max(e.InterTime, math.Max(e.IntraTime, e.LocalTime)) +
		float64(maxMsgs)*cfg.SendOverhead + latency
	return e
}

// PredictExchanges runs the cost model for every forward reshape of a
// plan with the given options (elemBytes is the pipeline element size),
// each reshape under the choice the plan would run it with.
func PredictExchanges(cfg netsim.Config, n [3]int, opts Options, elemBytes int) []ExchangeEstimate {
	opts = opts.withDefaults()
	var out []ExchangeEstimate
	for _, t := range ForwardTraffic(cfg.Ranks(), n, opts.SimScale, opts.PencilIO, elemBytes) {
		e := Roofline(cfg, t.Bytes, opts.choice(t.Label))
		e.Label = t.Label
		out = append(out, e)
	}
	return out
}
