package core

import (
	"encoding/binary"
	"math"
	"sort"

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

	// The per-destination headers the transports take: P-length, filled
	// and cleared by each execute, so the plan's reshapes share one set,
	// allocated by the first reshape that needs it. sendLease holds the
	// lease ids beside sendBytes (all zero but for the two-sided
	// all-to-all).
	sendBytes [][]byte
	sendVals  [][]float64
	sendLease []int
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
	stage             int
	decomp, simDecomp grid.Decomp
	order             grid.Order
}

// codec is a reshape element's wire format: little-endian bytes (size
// per element) for the lossless transports, flat float64 values (vals
// per element) for the compressed ones. Every conversion writes into a
// buffer its caller owns.
type codec[E any] struct {
	size, vals int
	encode     func(dst []byte, src []E)
	decode     func(b []byte, dst []E)
	toVals     func(src []E, dst []float64)
	fromVals   func(src []float64, dst []E)
}

// complexCodec ships pencil data: 8 bytes per complex64 element, 16 per
// complex128, interleaved re/im values.
func complexCodec[C fft.Complex](elemSize int) codec[C] {
	return codec[C]{elemSize, 2, encodeComplex[C], decodeComplex[C], complexToFloats[C], floatsToComplex[C]}
}

// realCodec ships the real bricks of the r2c transform at the
// pipeline's wire precision: 4 bytes per value in the FP32 pipeline, 8
// in FP64.
func realCodec(precBits int) codec[float64] {
	w := codec[float64]{
		size: 8, vals: 1,
		encode: func(dst []byte, src []float64) {
			for i, v := range src {
				binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(v))
			}
		},
		decode: func(b []byte, dst []float64) {
			for i := range dst {
				dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
			}
		},
		toVals:   func(src, dst []float64) { copy(dst, src) },
		fromVals: func(src, dst []float64) { copy(dst, src) },
	}
	if precBits == 32 {
		w.size = 4
		w.encode = func(dst []byte, src []float64) {
			for i, v := range src {
				binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(float32(v)))
			}
		}
		w.decode = func(b []byte, dst []float64) {
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
// two-sided transports, which keep none). bytes takes the payloads'
// lease ids beside them (see mpi.AlltoallvLeased; all zero when they
// carry none).
type transport struct {
	bytes  func(send [][]byte, lease []int) [][]byte
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
	// pl.decomp/orders).
	toStage int

	x transport
	// The reshape's send buffers: one block in the transport's format
	// (wireBytes or wireVals), holding plan.Send[i]'s payload at its
	// Offset. It is materialised by the first execute and packed in place
	// by every later one. lease is the id of plan.Send[0]'s
	// send-completion lease (the others follow in order), or 0: only the
	// two-sided all-to-all hands the payloads to their receivers as-is,
	// every other transport is done with them when it returns.
	wireBytes []byte
	wireVals  []float64
	lease     int
	// pack is the plan's scratch for packing into elements before
	// conversion, shared by its reshapes of element type E; packLen is
	// the most this reshape needs of it.
	pack    *[]E
	packLen int
	outBuf  []E
}

func newReshape[E any](pp *pipe, wire codec[E], pack *[]E, from, to layout, label string) *reshape[E] {
	me := pp.c.Rank()
	r := &reshape[E]{
		pp:         pp,
		wire:       wire,
		pack:       pack,
		plan:       grid.PlanFor(me, from.decomp, to.decomp),
		fromBox:    from.decomp.Box(me),
		fromOrder:  from.order,
		toBox:      to.decomp.Box(me),
		toOrder:    to.order,
		metricTime: "exchange/" + label + "/time_s",
		label:      label,
		toStage:    to.stage,
	}
	simPlan := grid.PlanFor(me, from.simDecomp, to.simDecomp)
	r.simSendTotal, r.simRecvTotal = simPlan.SendTotal, simPlan.RecvTotal

	r.packLen = max(maxCount(r.plan.Send), maxCount(r.plan.Recv))

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
	r.x = r.newTransport(choice, simPlan)
	return r
}

// pairCount(pl, me)(dst, src) is what src sends dst in rank me's plan
// pl, found in pl.Send if src == me, else in pl.Recv (dst must be me).
func pairCount(pl grid.Plan, me int) func(dst, src int) int {
	return func(dst, src int) int {
		ts, peer := pl.Send, dst
		if src != me {
			ts, peer = pl.Recv, src
		}
		i := sort.Search(len(ts), func(i int) bool { return ts[i].Rank >= peer })
		if i == len(ts) || ts[i].Rank != peer {
			return 0
		}
		return ts[i].Count
	}
}

// newTransport builds the exchange a choice names — the one place that
// maps a Backend onto an implementation. The two-sided all-to-all also
// registers the reshape's send-completion leases.
func (r *reshape[E]) newTransport(choice ExchangeChoice, simPlan grid.Plan) transport {
	pp := r.pp
	c := pp.c
	p := c.Size()
	elem, vals := r.wire.size, r.wire.vals
	overlap, simOverlap := pairCount(r.plan, c.Rank()), pairCount(simPlan, c.Rank())
	maxSend := func(pl grid.Plan) int {
		return int(c.AllreduceFloat64("max", float64(maxCount(pl.Send))))
	}

	switch choice.Backend {
	case BackendAlltoallv:
		recvNonzero := make([]bool, p)
		for _, t := range r.plan.Recv {
			recvNonzero[t.Rank] = true
		}
		// Per-destination wire bytes, from the simulated plan (the real
		// one unless SimScale > 1).
		logical := make([]int, p)
		for _, t := range simPlan.Send {
			logical[t.Rank] = elem * t.Count
		}
		r.lease = c.NewLeases(len(r.plan.Send))
		return transport{bytes: func(send [][]byte, lease []int) [][]byte {
			return c.AlltoallvLeased(send, lease, recvNonzero, logical)
		}}
	case BackendOSC:
		osc := exchange.NewOSC(c, func(dst, src int) int { return elem * overlap(dst, src) }, true)
		osc.Logical = func(dst, src int) int { return elem * simOverlap(dst, src) }
		return transport{bytes: func(send [][]byte, _ []int) [][]byte { return osc.Exchange(send) }, ledger: osc}
	case BackendBruck:
		// Bruck requires uniform blocks: pad every pairwise payload to
		// the global maximum overlap. The maximum is reduced
		// collectively (every pair appears in its source's send list, so
		// the send-side maximum covers all pairs), which keeps the block
		// size — and hence every round's message sizes — identical on
		// all ranks.
		block := elem * maxSend(r.plan)
		logical := block
		if pp.opts.SimScale > 1 {
			// A second reduction for the simulated plan: unconditional,
			// it would add messages to unscaled runs.
			logical = elem * maxSend(simPlan)
		}
		padded := make([][]byte, p)
		for d := range padded {
			padded[d] = make([]byte, block)
		}
		return transport{bytes: func(send [][]byte, _ []int) [][]byte {
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
		cosc.SimCounts = func(dst, src int) int { return vals * simOverlap(dst, src) }
		return transport{vals: cosc.Exchange, ledger: cosc}
	case BackendCompressedTwoSided:
		c2s := exchange.NewTwoSidedCompressed(c, choice.Method, pp.stream,
			func(dst, src int) int { return vals * overlap(dst, src) })
		c2s.SetLabel(r.label)
		c2s.SimCounts = func(dst, src int) int { return vals * simOverlap(dst, src) }
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
	if r.wireBytes == nil && r.wireVals == nil {
		r.materialize()
	}
	if cap(*r.pack) < r.packLen {
		*r.pack = make([]E, r.packLen)
	}
	pack := *r.pack

	// Pack every destination's overlap, reordered to the target layout,
	// into its wire buffer — unless its receiver still holds that buffer
	// from the last call (the lease is busy), in which case the payload
	// goes out in a fresh one. Destinations with no overlap keep nil
	// payloads (the transports read them as zero-length).
	pp.kernel(obs.PhasePack, &pp.profile.Pack, sendWire, dev.CopyCost(sendWire), func() {
		for i, t := range r.plan.Send {
			src := pack[:t.Count]
			grid.Pack(local, r.fromBox, r.fromOrder, t.Sub, r.toOrder, src)
			if !byBytes {
				lo, hi := r.wire.vals*t.Offset, r.wire.vals*(t.Offset+t.Count)
				r.wire.toVals(src, r.wireVals[lo:hi])
				pp.sendVals[t.Rank] = r.wireVals[lo:hi:hi]
				continue
			}
			lo, hi := r.wire.size*t.Offset, r.wire.size*(t.Offset+t.Count)
			buf := r.wireBytes[lo:hi:hi]
			if r.lease != 0 {
				buf, pp.sendLease[t.Rank] = c.LeasedBuf(r.lease+i, buf)
			}
			r.wire.encode(buf, src)
			pp.sendBytes[t.Rank] = buf
		}
	})

	tExchange := c.Now()
	rk.Begin(obs.TrackHost, obs.PhaseExchange, tExchange)
	var recvBytes [][]byte
	var recvVals [][]float64
	if byBytes {
		recvBytes = r.x.bytes(pp.sendBytes, pp.sendLease)
	} else {
		recvVals = r.x.vals(pp.sendVals)
	}
	for _, t := range r.plan.Send {
		if byBytes {
			pp.sendBytes[t.Rank], pp.sendLease[t.Rank] = nil, 0
		} else {
			pp.sendVals[t.Rank] = nil
		}
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

	// Unpack into the target layout, then hand the senders their leased
	// buffers back.
	out := r.output()
	pp.kernel(obs.PhaseUnpack, &pp.profile.Unpack, recvWire, dev.CopyCost(recvWire), func() {
		for _, t := range r.plan.Recv {
			if byBytes {
				r.wire.decode(recvBytes[t.Rank], pack[:t.Count])
			} else {
				r.wire.fromVals(recvVals[t.Rank], pack[:t.Count])
			}
			grid.Unpack(pack[:t.Count], t.Sub, out, r.toBox, r.toOrder)
		}
	})
	if r.lease != 0 {
		c.ReleaseRecv()
	}
	return out
}

// output returns the reshape's output buffer, allocated on first use
// like the send buffers, so a reshape that never runs holds none.
func (r *reshape[E]) output() []E {
	if r.outBuf == nil {
		r.outBuf = make([]E, r.toBox.Count())
	}
	return r.outBuf
}

// materialize allocates the reshape's send buffers in the transport's
// format, and the plan's headers the first time one is needed.
func (r *reshape[E]) materialize() {
	pp := r.pp
	p := pp.c.Size()
	if r.x.bytes == nil {
		r.wireVals = make([]float64, r.wire.vals*r.plan.SendTotal)
		if pp.sendVals == nil {
			pp.sendVals = make([][]float64, p)
		}
		return
	}
	r.wireBytes = make([]byte, r.wire.size*r.plan.SendTotal)
	if pp.sendBytes == nil {
		pp.sendBytes, pp.sendLease = make([][]byte, p), make([]int, p)
	}
}
