package exchange

import (
	"encoding/binary"

	"repro/internal/compress"
	"repro/internal/gpu"
	"repro/internal/mpi"
	"repro/internal/obs"
)

// TwoSidedCompressed applies the same lossy compression as CompressedOSC
// but ships the data through the classical two-sided all-to-all-v, with
// no §V-B pipeline: compress everything, synchronize, exchange,
// decompress. It exists to isolate the paper's two contributions — the
// compression and the one-sided transport — in ablations.
type TwoSidedCompressed struct {
	c      *mpi.Comm
	stream *gpu.Stream
	counts CountFn
	// SimCounts gives the value counts used for timing (see
	// CompressedOSC.SimCounts).
	SimCounts CountFn

	errAttr // the codec and its attribution under the label

	recvCounts  []int
	recvNonzero []bool
	// sendBufs[d] is the compressed staging for rank d, reused across
	// calls once its receiver has released it: its send-completion lease
	// is lease+d (mpi.AlltoallvLeased). payload and leases are the
	// per-call headers handed to the all-to-all, and logical their wire
	// bytes.
	sendBufs [][]byte
	lease    int
	payload  [][]byte
	leases   []int
	logical  []int
}

// NewTwoSidedCompressed builds the exchange for the fixed pattern counts.
func NewTwoSidedCompressed(c *mpi.Comm, method compress.Method, stream *gpu.Stream, counts CountFn) *TwoSidedCompressed {
	p := c.Size()
	me := c.Rank()
	x := &TwoSidedCompressed{
		c:           c,
		errAttr:     errAttr{method: method},
		stream:      stream,
		counts:      counts,
		SimCounts:   counts,
		recvCounts:  make([]int, p),
		recvNonzero: make([]bool, p),
		sendBufs:    make([][]byte, p),
		lease:       c.NewLeases(p),
		payload:     make([][]byte, p),
		leases:      make([]int, p),
		logical:     make([]int, p),
	}
	for s := 0; s < p; s++ {
		x.recvCounts[s] = counts(me, s)
		x.recvNonzero[s] = x.recvCounts[s] > 0
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
func (x *TwoSidedCompressed) SetLabel(label string) { x.errAttr.setLabel(label) }

// ExchangeWith compresses the counts(d, me) float64 values io.Send(d)
// gives for every rank d on the GPU, runs the two-sided all-to-all on
// the compressed payloads, and decompresses each received slot into
// io.Recv(s), handing it back through io.Received(s). A staging buffer
// whose receiver has not yet released it (that rank is still
// decompressing the previous call's payload) is not overwritten: this
// call's payload for it goes out in a fresh buffer.
func (x *TwoSidedCompressed) ExchangeWith(io Payloads) {
	me := x.c.Rank()
	p := x.c.Size()
	dev := x.stream.Device()

	// One compression kernel over the whole send buffer, then a full
	// synchronization — no overlap with communication by design.
	inBytes, outBytes := 0, 0
	for d := 0; d < p; d++ {
		cv := x.SimCounts(d, me)
		inBytes += 8 * cv
		outBytes += x.method.MaxCompressedLen(cv)
	}
	payload := x.payload
	x.stream.LaunchTagged(obs.PhaseCompress, dev.CompressCost(inBytes, outBytes), func() {
		for d := 0; d < p; d++ {
			vals := io.Send(d)
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

	var rawBytes, wireBytes int64
	for d := 0; d < p; d++ {
		x.logical[d] = 0
		if cv := x.counts(d, me); cv > 0 {
			sim := x.SimCounts(d, me)
			x.logical[d] = slotWire(len(payload[d])-4, cv, sim)
			rawBytes += 8 * int64(sim)
			wireBytes += int64(x.logical[d])
		}
	}
	rk := x.c.Obs()
	x.volume(rk, rawBytes, wireBytes)

	// With an event log attached, measure the error this epoch actually
	// introduced by round-tripping each compressed payload on the host —
	// the same per-peer attribution CompressedOSC reports, so ablations
	// are comparable stage for stage.
	if rk.EventsOn() {
		for d := 0; d < p; d++ {
			if x.counts(d, me) > 0 {
				x.slot(rk, x.c.Now(), d, payload[d], io.Send(d))
			}
		}
		x.achieved(rk, x.c.Now())
	}

	recv := x.c.AlltoallvLeased(payload, x.leases, x.recvNonzero, x.logical)

	// Decompress the received slots in one kernel.
	inBytes, outBytes = 0, 0
	for s, cnt := range x.recvCounts {
		if cnt == 0 {
			continue
		}
		sc := x.SimCounts(me, s)
		inBytes += x.method.MaxCompressedLen(sc)
		outBytes += 8 * sc
	}
	x.stream.LaunchTagged(obs.PhaseDecompress, dev.CompressCost(inBytes, outBytes), func() {
		for s, cnt := range x.recvCounts {
			if cnt == 0 {
				continue
			}
			clen := int(binary.LittleEndian.Uint32(recv[s]))
			x.method.Decompress(io.Recv(s), recv[s][4:4+clen])
			io.Received(s)
		}
	})
	x.stream.Synchronize()
	x.c.ReleaseRecv()
}
