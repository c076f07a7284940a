package exchange

import (
	"encoding/binary"

	"repro/internal/compress"
	"repro/internal/gpu"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/obs/errtrack"
)

// TwoSidedCompressed applies the same lossy compression as CompressedOSC
// but ships the data through the classical two-sided all-to-all-v, with
// no §V-B pipeline: compress everything, synchronize, exchange,
// decompress. It exists to isolate the paper's two contributions — the
// compression and the one-sided transport — in ablations.
type TwoSidedCompressed struct {
	c      *mpi.Comm
	method compress.Method
	stream *gpu.Stream
	counts CountFn
	// SimCounts enables the scaled-volume mode (see CompressedOSC).
	SimCounts CountFn

	// Precomputed metric names of this exchange's label (SetLabel).
	metricRaw, metricWire, metricErr, metricAchieved string
	metricTrkMaxRel, metricTrkRMS, metricTrkVals     string
	label                                            string
	// errScratch holds decompressed values while measuring the achieved
	// error; allocated lazily and only when an event log is attached.
	errScratch []float64

	recvCounts  []int
	recvNonzero []bool
	// sendBufs[d] is the compressed staging for rank d, reused across
	// calls once its receiver has released it: its send-completion lease
	// is lease+d (mpi.AlltoallvLeased). payload and leases are the
	// per-call headers handed to the all-to-all.
	sendBufs [][]byte
	lease    int
	payload  [][]byte
	leases   []int
	out      [][]float64
}

// NewTwoSidedCompressed builds the exchange for the fixed pattern counts.
func NewTwoSidedCompressed(c *mpi.Comm, method compress.Method, stream *gpu.Stream, counts CountFn) *TwoSidedCompressed {
	p := c.Size()
	me := c.Rank()
	x := &TwoSidedCompressed{
		c:           c,
		method:      method,
		stream:      stream,
		counts:      counts,
		recvCounts:  make([]int, p),
		recvNonzero: make([]bool, p),
		sendBufs:    make([][]byte, p),
		lease:       c.NewLeases(p),
		payload:     make([][]byte, p),
		leases:      make([]int, p),
		out:         make([][]float64, p),
	}
	for s := 0; s < p; s++ {
		x.recvCounts[s] = counts(me, s)
		x.recvNonzero[s] = x.recvCounts[s] > 0
		x.out[s] = make([]float64, x.recvCounts[s])
	}
	for d := 0; d < p; d++ {
		if cv := counts(d, me); cv > 0 {
			x.sendBufs[d] = make([]byte, 4+method.MaxCompressedLen(cv))
		} else {
			x.sendBufs[d] = []byte{}
		}
	}
	x.SetLabel("exchange-2s")
	return x
}

// SetLabel names this exchange in the metric registry (see
// CompressedOSC.SetLabel).
func (x *TwoSidedCompressed) SetLabel(label string) {
	x.label = label
	x.metricRaw, x.metricWire, x.metricErr = obs.CompressMetricNames(label)
	x.metricAchieved = "compress/" + label + "/achieved_error"
	x.metricTrkMaxRel, x.metricTrkRMS, x.metricTrkVals = obs.ErrtrackMetricNames(label)
}

// Exchange compresses send (counts(d, me) float64 values per rank d) on
// the GPU, runs the two-sided all-to-all on the compressed payloads, and
// decompresses the received slots. The returned slices are reused across
// calls. A staging buffer whose receiver has not yet released it (that
// rank is still decompressing the previous call's payload) is not
// overwritten: this call's payload for it goes out in a fresh buffer.
func (x *TwoSidedCompressed) Exchange(send [][]float64) [][]float64 {
	me := x.c.Rank()
	p := x.c.Size()
	dev := x.stream.Device()
	simCounts := x.counts
	if x.SimCounts != nil {
		simCounts = x.SimCounts
	}

	// One compression kernel over the whole send buffer, then a full
	// synchronization — no overlap with communication by design.
	inBytes, outBytes := 0, 0
	for d := 0; d < p; d++ {
		cv := simCounts(d, me)
		inBytes += 8 * cv
		outBytes += x.method.MaxCompressedLen(cv)
	}
	payload := x.payload
	x.stream.LaunchTagged(obs.PhaseCompress, dev.CompressCost(inBytes, outBytes), func() {
		for d := 0; d < p; d++ {
			vals := send[d]
			if want := x.counts(d, me); len(vals) != want {
				panic("exchange: send count does not match the two-sided compressed plan")
			}
			if len(vals) == 0 {
				payload[d] = x.sendBufs[d]
				continue
			}
			buf, lease := x.c.LeasedBuf(x.lease+d, x.sendBufs[d])
			x.leases[d] = lease
			clen := x.method.Compress(buf[4:], vals)
			binary.LittleEndian.PutUint32(buf, uint32(clen))
			payload[d] = buf[:4+clen]
		}
	})
	x.stream.Synchronize()

	// Logical sizes for the scaled-volume mode follow the compression
	// rate applied to the simulated counts.
	var logical []int
	if x.SimCounts != nil {
		logical = make([]int, p)
		for d := 0; d < p; d++ {
			if cv := x.counts(d, me); cv > 0 {
				logical[d] = len(payload[d]) * simCounts(d, me) / cv
			}
		}
	}
	var rawBytes, wireBytes int64
	for d := 0; d < p; d++ {
		if x.counts(d, me) == 0 {
			continue
		}
		rawBytes += 8 * int64(simCounts(d, me))
		if logical != nil {
			wireBytes += int64(logical[d])
		} else {
			wireBytes += int64(len(payload[d]))
		}
	}
	rk := x.c.Obs()
	rk.Add(x.metricRaw, rawBytes)
	rk.Add(x.metricWire, wireBytes)
	rk.Set(x.metricErr, x.method.ErrorBound())

	// With an event log attached, measure the error this epoch actually
	// introduced by round-tripping each compressed payload on the host —
	// the same per-peer attribution CompressedOSC reports, so ablations
	// are comparable stage for stage. Wall-clock only, never virtual time.
	if rk.EventsOn() {
		worstErr, measured := 0.0, false
		for d := 0; d < p; d++ {
			if x.counts(d, me) == 0 {
				continue
			}
			st, ok := slotStats(x.method, &x.errScratch, payload[d], send[d])
			if !ok {
				continue
			}
			measured = true
			if st.MaxRel > worstErr {
				worstErr = st.MaxRel
			}
			rk.Observe(x.metricTrkMaxRel, st.MaxRel)
			rk.Observe(x.metricTrkRMS, st.RMS())
			rk.Add(x.metricTrkVals, st.N)
			rk.Emit(errtrack.AttrEvent(x.c.Now(), x.label, d, x.method.ErrorBound(), st))
		}
		if measured {
			rk.Observe(x.metricAchieved, worstErr)
			rk.Emit(obs.Event{
				T: x.c.Now(), Kind: obs.EventError, Label: x.label, Peer: -1,
				Value: worstErr, Bound: x.method.ErrorBound(),
			})
		}
	}

	recv := x.c.AlltoallvLeased(payload, x.leases, x.recvNonzero, logical)

	// Decompress the received slots in one kernel.
	inBytes, outBytes = 0, 0
	for s, cnt := range x.recvCounts {
		if cnt == 0 {
			continue
		}
		sc := simCounts(me, s)
		inBytes += x.method.MaxCompressedLen(sc)
		outBytes += 8 * sc
	}
	x.stream.LaunchTagged(obs.PhaseDecompress, dev.CompressCost(inBytes, outBytes), func() {
		for s, cnt := range x.recvCounts {
			if cnt == 0 {
				continue
			}
			clen := int(binary.LittleEndian.Uint32(recv[s]))
			x.method.Decompress(x.out[s], recv[s][4:4+clen])
		}
	})
	x.stream.Synchronize()
	x.c.ReleaseRecv()
	return x.out
}
