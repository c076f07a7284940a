package tune

import (
	"math"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/mpi"
	"repro/internal/netsim"
)

// Predict returns the prediction (seconds) of one exchange of the
// traffic matrix under a candidate: bytes(dst, src) is the raw payload
// from src to dst (core.Traffic). It is core's roofline plus the two
// terms the tuner's space needs on top: the Bruck log-round aggregation
// (predictBruck), which replaces it, and the exposed compression-kernel
// time of the §V-B pipeline, which is what makes the prediction
// sensitive to the chunk count. A ranking function, not a simulator (see
// core's model comment for how far it sits from measurement); the probe
// runs exist to catch the cases where its ordering is wrong.
func Predict(cfg netsim.Config, dev gpu.Device, bytes func(dst, src int) int, cand Candidate) float64 {
	if cand.Backend == core.BackendBruck {
		return predictBruck(cfg, bytes)
	}
	t := core.Roofline(cfg, bytes, core.ExchangeChoice(cand)).Predicted
	if cand.Backend.Row().Compressed {
		exposed, device := kernelTimes(cfg, dev, bytes, cand)
		t = math.Max(t, device) + exposed
	}
	return t
}

// kernelTimes models the §V-B pipeline's compression cost, split into
// the part the pipeline cannot hide (the first chunk's compression and
// the last chunk's decompression — nothing to overlap them with) and
// the busiest rank's total serialized device occupancy (every chunk's
// compression and decompression, each floored at the device's minimum
// kernel duration). The floor is what keeps "more chunks" from being
// free: past the point where a chunk's work drops under the launch
// floor, deeper pipelines turn the device into the bottleneck.
func kernelTimes(cfg netsim.Config, dev gpu.Device, bytes func(dst, src int) int, cand Candidate) (exposed, device float64) {
	p := cfg.Ranks()
	maxSend := 0
	for src := 0; src < p; src++ {
		total := 0
		for dst := 0; dst < p; dst++ {
			total += bytes(dst, src)
		}
		if total > maxSend {
			maxSend = total
		}
	}
	chunks := cand.Chunks
	if chunks < 1 {
		chunks = 1
	}
	raw := maxSend / chunks
	vals := raw / 8
	packed := cand.Method.MaxCompressedLen(vals)
	perChunk := dev.CompressCost(raw, packed) + dev.CompressCost(packed, raw)
	return perChunk, float64(chunks) * perChunk
}

// predictBruck models the log-round aggregated algorithm on padded
// uniform blocks (the padding core's Bruck reshape applies). Round k
// moves every block whose slot index has bit k set — about half the
// blocks — one message per rank. For rounds shorter than a node
// (k < GPUsPerNode) only k of a node's senders cross the NIC and the
// rest share the bus; longer rounds push every sender through the NIC.
// An approximation (boundary ranks blur the split), but a deterministic
// one, and it captures the trade the tuner needs: ~log2(p) large
// messages against p-1 per-pair ones.
func predictBruck(cfg netsim.Config, bytes func(dst, src int) int) float64 {
	p := cfg.Ranks()
	gpn := cfg.GPUsPerNode
	block := 0
	for src := 0; src < p; src++ {
		for dst := 0; dst < p; dst++ {
			if b := bytes(dst, src); b > block {
				block = b
			}
		}
	}
	if block == 0 {
		return 0
	}
	t := 0.0
	for k := 1; k < p; k <<= 1 {
		nblk := 0
		for j := 0; j < p; j++ {
			if j&k != 0 {
				nblk++
			}
		}
		msg := float64(nblk) * float64(block)
		crossing := 0
		if cfg.Nodes > 1 {
			crossing = k
			if crossing > gpn {
				crossing = gpn
			}
		}
		local := gpn - crossing
		inter, intra := 0.0, 0.0
		if crossing > 0 {
			perMsg := cfg.ProtoOverheadInter
			if int(msg) <= mpi.DefaultEagerThreshold {
				perMsg = 0
			}
			inter = float64(crossing) * (msg/cfg.InterBW + perMsg)
		}
		if local > 0 {
			perMsg := cfg.ProtoOverheadIntra
			if int(msg) <= mpi.DefaultEagerThreshold {
				perMsg = 0
			}
			intra = float64(local) * (msg/cfg.IntraBW + perMsg)
		}
		lat := cfg.IntraLatency
		if crossing > 0 {
			lat = cfg.InterLatency
		}
		t += math.Max(inter, intra) + cfg.SendOverhead + lat
	}
	return t
}
