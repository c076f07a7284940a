package core

import (
	"encoding/binary"
	"math"

	"repro/internal/exchange"
	"repro/internal/fft"
	"repro/internal/gpu"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/obs"
)

// pipe is what every stage of one pipeline shares, whatever its element
// type: the communicator, the resolved options, the GPU stream the
// kernels are charged to, and the phase profile they accumulate into.
type pipe struct {
	c        *mpi.Comm
	opts     Options
	stream   *gpu.Stream
	precBits int
	profile  Profile
}

// kernel runs one GPU kernel of the given cost to completion as a span
// of the given phase (carrying bytes, the volume it moved), and adds its
// virtual time to the phase's profile entry.
func (pp *pipe) kernel(phase obs.Phase, spent *float64, bytes int, cost float64, run func()) {
	rk := pp.c.Obs()
	t0 := pp.c.Now()
	rk.Begin(obs.TrackHost, phase, t0)
	pp.stream.LaunchTagged(phase, cost, run)
	pp.stream.Synchronize()
	*spent += pp.c.Now() - t0
	rk.End(pp.c.Now(), int64(bytes))
}

// maxCount returns the largest per-peer element count of a schedule.
func maxCount(ts []grid.Transfer) int {
	m := 0
	for _, t := range ts {
		if t.Count > m {
			m = t.Count
		}
	}
	return m
}

// layout is one side of a reshape: a pipeline stage's decomposition on
// the data grid, its mirror on the SimScale-enlarged grid the time plane
// draws message sizes and kernel volumes from, and the local memory
// order of the stage's data.
type layout struct {
	stage           int
	boxes, simBoxes []grid.Box
	order           grid.Order
}

// codec is a reshape element's wire format: little-endian bytes (size
// per element) for the lossless transports, flat float64 values (vals
// per element) for the compressed ones.
type codec[E any] struct {
	size, vals int
	toBytes    func(src []E) []byte
	fromBytes  func(b []byte, dst []E)
	toVals     func(src []E, dst []float64)
	fromVals   func(src []float64, dst []E)
}

// complexCodec ships pencil data: 8 bytes per complex64 element, 16 per
// complex128, interleaved re/im values.
func complexCodec[C fft.Complex](elemSize int) codec[C] {
	return codec[C]{elemSize, 2, complexToBytes[C], bytesToComplex[C], complexToFloats[C], floatsToComplex[C]}
}

// realCodec ships the real bricks of the r2c transform at the
// pipeline's wire precision: 4 bytes per value in the FP32 pipeline, 8
// in FP64.
func realCodec(precBits int) codec[float64] {
	w := codec[float64]{
		size: 8, vals: 1,
		toBytes:   mpi.Float64sToBytes,
		fromBytes: func(b []byte, dst []float64) { copy(dst, mpi.BytesToFloat64s(b)) },
		toVals:    func(src, dst []float64) { copy(dst, src) },
		fromVals:  func(src, dst []float64) { copy(dst, src) },
	}
	if precBits == 32 {
		w.size = 4
		w.toBytes = func(src []float64) []byte {
			out := make([]byte, 4*len(src))
			for i, v := range src {
				binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(float32(v)))
			}
			return out
		}
		w.fromBytes = func(b []byte, dst []float64) {
			for i := range dst {
				dst[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:])))
			}
		}
	}
	return w
}

// ledgered is the checkpointable part of an exchange (OSC and
// CompressedOSC implement it).
type ledgered interface {
	LedgerState() []byte
	RestoreLedger([]byte) error
}

// transport is a reshape's resolved all-to-all. Exactly one of bytes and
// vals is set — which one is all execute needs to know; ledger is the
// exchange's healing ledger for the epoch checkpoints (nil for the
// two-sided transports, which keep none).
type transport struct {
	bytes  func(send [][]byte) [][]byte
	vals   func(send [][]float64) [][]float64
	ledger ledgered
}

// reshape moves data of element type E between two decompositions
// through its resolved all-to-all transport.
type reshape[E any] struct {
	pp        *pipe
	wire      codec[E]
	plan      grid.Plan
	fromBox   grid.Box
	fromOrder grid.Order
	toBox     grid.Box
	toOrder   grid.Order
	// Simulated volumes of this rank's pack/unpack (scaled-volume mode),
	// in elements.
	simSendTotal, simRecvTotal int
	// metricTime is the precomputed histogram name for this reshape's
	// measured exchange time ("exchange/<label>/time_s"), which the bench
	// artifacts compare against the cost model's prediction. label is the
	// reshape's name (fwd0..3 / bwd0..3, r2c-real / r2c-real-back),
	// stamped on telemetry events.
	metricTime string
	label      string
	// toStage identifies the output decomposition stage (index into
	// pl.boxes/orders) — the shrink migration rebuilds the same stage's
	// layout for the previous membership's rank count.
	toStage int

	x transport
	// Per-destination payloads of the current execution; the one matching
	// the transport's kind is allocated.
	sendBytes [][]byte
	sendVals  [][]float64
	// Scratch for packing into elements before conversion.
	packBuf []E
	outBuf  []E
}

func newReshape[E any](pp *pipe, wire codec[E], from, to layout, label string) *reshape[E] {
	me := pp.c.Rank()
	r := &reshape[E]{
		pp:         pp,
		wire:       wire,
		plan:       grid.NewPlan(me, from.boxes, to.boxes),
		fromBox:    from.boxes[me],
		fromOrder:  from.order,
		toBox:      to.boxes[me],
		toOrder:    to.order,
		metricTime: "exchange/" + label + "/time_s",
		label:      label,
		toStage:    to.stage,
	}
	simPlan := grid.NewPlan(me, from.simBoxes, to.simBoxes)
	r.simSendTotal, r.simRecvTotal = simPlan.SendTotal, simPlan.RecvTotal

	r.packBuf = make([]E, max(maxCount(r.plan.Send), maxCount(r.plan.Recv)))
	r.outBuf = make([]E, r.toBox.Count())

	// Resolve this reshape's exchange choice: the fixed Options, unless
	// an attached tune plan covers the label. The transport keys off the
	// choice, never off pp.opts, so a tuned stage is constructed and
	// executed exactly like — and is bit-identical to — the same stage
	// under fixed Options.
	choice := ExchangeChoice{Backend: pp.opts.Backend, Chunks: pp.opts.Chunks, Method: pp.opts.Method}
	if pp.opts.Tune != nil {
		if ch, ok := pp.opts.Tune.Choice(label); ok {
			choice = ch
			if choice.Chunks == 0 {
				choice.Chunks = pp.opts.Chunks
			}
		}
	}
	if choice.Backend.compressed() {
		if choice.Method == nil {
			panic("core: compressed exchange choice for " + label + " has no method")
		}
		if pp.precBits == 32 {
			panic("core: compressed backends require the FP64 pipeline")
		}
	}
	r.x = r.newTransport(choice, from, to, simPlan)
	if r.x.bytes != nil {
		r.sendBytes = make([][]byte, pp.c.Size())
	} else {
		r.sendVals = make([][]float64, pp.c.Size())
	}
	return r
}

// newTransport builds the exchange a choice names — the one place that
// maps a Backend onto an implementation.
func (r *reshape[E]) newTransport(choice ExchangeChoice, from, to layout, simPlan grid.Plan) transport {
	pp := r.pp
	c := pp.c
	p := c.Size()
	scaled := pp.opts.SimScale > 1
	elem, vals := r.wire.size, r.wire.vals
	overlap := func(dst, src int) int { return grid.Intersect(from.boxes[src], to.boxes[dst]).Count() }
	simOverlap := func(dst, src int) int { return grid.Intersect(from.simBoxes[src], to.simBoxes[dst]).Count() }
	maxSend := func(pl grid.Plan) int {
		return int(c.AllreduceFloat64("max", float64(maxCount(pl.Send))))
	}

	switch choice.Backend {
	case BackendAlltoallv:
		recvNonzero := make([]bool, p)
		for _, t := range r.plan.Recv {
			recvNonzero[t.Rank] = true
		}
		// Per-destination logical wire bytes (scaled-volume mode only).
		var logical []int
		if scaled {
			logical = make([]int, p)
			for _, t := range simPlan.Send {
				logical[t.Rank] = elem * t.Count
			}
		}
		return transport{bytes: func(send [][]byte) [][]byte {
			return c.AlltoallvSparse(send, recvNonzero, logical)
		}}
	case BackendOSC:
		osc := exchange.NewOSC(c, func(dst, src int) int { return elem * overlap(dst, src) }, true)
		if scaled {
			osc.Logical = func(dst, src int) int { return elem * simOverlap(dst, src) }
		}
		return transport{bytes: osc.Exchange, ledger: osc}
	case BackendBruck:
		// Bruck requires uniform blocks: pad every pairwise payload to
		// the global maximum overlap. The maximum is reduced
		// collectively (every pair appears in its source's send list, so
		// the send-side maximum covers all pairs), which keeps the block
		// size — and hence every round's message sizes — identical on
		// all ranks.
		block := elem * maxSend(r.plan)
		logical := block
		if scaled {
			logical = elem * maxSend(simPlan)
		}
		padded := make([][]byte, p)
		for d := range padded {
			padded[d] = make([]byte, block)
		}
		return transport{bytes: func(send [][]byte) [][]byte {
			if block == 0 {
				return padded
			}
			// Pad every pairwise payload into its uniform block (bytes
			// past the overlap travel but are never unpacked).
			for d := range padded {
				copy(padded[d], send[d])
			}
			return exchange.BruckAlltoall(c, padded, block, logical)
		}}
	case BackendCompressed:
		// Scale the pipeline depth to the payload: one chunk per 256 KB
		// of send data (capped at the configured depth) so that tiny
		// exchanges do not pay per-kernel overhead for overlap they
		// cannot use.
		chunks := r.simSendTotal * elem / (256 << 10)
		if chunks < 1 {
			chunks = 1
		}
		if chunks > choice.Chunks {
			chunks = choice.Chunks
		}
		cosc := exchange.NewCompressedOSC(c, choice.Method, pp.stream, chunks,
			func(dst, src int) int { return vals * overlap(dst, src) })
		cosc.SetLabel(r.label)
		cosc.Pipelined = !pp.opts.DisablePipeline
		if scaled {
			cosc.SimCounts = func(dst, src int) int { return vals * simOverlap(dst, src) }
		}
		return transport{vals: cosc.Exchange, ledger: cosc}
	case BackendCompressedTwoSided:
		c2s := exchange.NewTwoSidedCompressed(c, choice.Method, pp.stream,
			func(dst, src int) int { return vals * overlap(dst, src) })
		c2s.SetLabel(r.label)
		if scaled {
			c2s.SimCounts = func(dst, src int) int { return vals * simOverlap(dst, src) }
		}
		return transport{vals: c2s.Exchange}
	}
	panic("core: unknown backend " + choice.Backend.String())
}

// execute performs the reshape: pack (GPU), exchange (transport), unpack
// (GPU). The returned buffer is owned by the reshape and valid until its
// next execution.
func (r *reshape[E]) execute(local []E) []E {
	pp := r.pp
	c := pp.c
	dev := pp.opts.Device
	rk := c.Obs()
	byBytes := r.x.bytes != nil
	sendWire, recvWire := r.simSendTotal*r.wire.size, r.simRecvTotal*r.wire.size

	// Pack every destination's overlap, reordered to the target layout.
	// Destinations with no overlap get zero-length payloads (the plans
	// demand exact counts).
	for d := range r.sendBytes {
		r.sendBytes[d] = []byte{}
	}
	for d := range r.sendVals {
		r.sendVals[d] = []float64{}
	}
	pp.kernel(obs.PhasePack, &pp.profile.Pack, sendWire, dev.CopyCost(sendWire), func() {
		for _, t := range r.plan.Send {
			grid.Pack(local, r.fromBox, r.fromOrder, t.Sub, r.toOrder, r.packBuf[:t.Count])
			if byBytes {
				r.sendBytes[t.Rank] = r.wire.toBytes(r.packBuf[:t.Count])
			} else {
				buf := make([]float64, r.wire.vals*t.Count)
				r.wire.toVals(r.packBuf[:t.Count], buf)
				r.sendVals[t.Rank] = buf
			}
		}
	})

	tExchange := c.Now()
	rk.Begin(obs.TrackHost, obs.PhaseExchange, tExchange)
	var recvBytes [][]byte
	var recvVals [][]float64
	if byBytes {
		recvBytes = r.x.bytes(r.sendBytes)
	} else {
		recvVals = r.x.vals(r.sendVals)
	}

	tUnpack := c.Now()
	pp.profile.Exchange += tUnpack - tExchange
	// The span carries the uncompressed bytes this rank contributed to
	// the wire.
	rk.End(tUnpack, int64(sendWire))
	rk.Observe(r.metricTime, tUnpack-tExchange)
	rk.Emit(obs.Event{
		T: tUnpack, Kind: obs.EventExchange, Label: r.label, Peer: -1,
		Value: tUnpack - tExchange,
	})

	// Unpack into the target layout.
	pp.kernel(obs.PhaseUnpack, &pp.profile.Unpack, recvWire, dev.CopyCost(recvWire), func() {
		for _, t := range r.plan.Recv {
			if byBytes {
				r.wire.fromBytes(recvBytes[t.Rank], r.packBuf[:t.Count])
			} else {
				r.wire.fromVals(recvVals[t.Rank], r.packBuf[:t.Count])
			}
			grid.Unpack(r.packBuf[:t.Count], t.Sub, r.outBuf, r.toBox, r.toOrder)
		}
	})
	return r.outBuf
}
