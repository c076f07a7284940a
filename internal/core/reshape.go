package core

import (
	"sort"

	"repro/internal/exchange"
	"repro/internal/gpu"
	"repro/internal/grid"
	"repro/internal/mem"
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

// codec is a reshape element's wire format, size bytes per element. The
// wire is the elements' own memory, viewed as bytes or, on the
// compressed (FP64-only) transports, as size/8 float64 values per
// element (mem.View: little-endian, interleaved re/im for complex
// elements), so packing is the only pass over the data. The pencils'
// codec is codec[C]{size: elemSize}. The exception is a wire value
// narrower than its element: narrow and widen, set only then, convert
// through the reshape's stage scratch.
type codec[E mem.Word] struct {
	size   int
	narrow func(dst []byte, src []E)
	widen  func(src []byte, dst []E)
}

// realCodec ships the real bricks of the r2c transform at the
// pipeline's wire precision: the float64 values themselves in FP64, and
// in FP32 narrowed to float32 — the one codec whose wire is not its
// elements' memory, since PlanR2C takes float64 input in both pipelines.
func realCodec(precBits int) codec[float64] {
	if precBits != 32 {
		return codec[float64]{size: 8}
	}
	return codec[float64]{
		size: 4,
		narrow: func(dst []byte, src []float64) {
			w := mem.View[float32](dst)
			for i, v := range src {
				w[i] = float32(v)
			}
		},
		widen: func(src []byte, dst []float64) {
			for i, v := range mem.View[float32](src) {
				dst[i] = float64(v)
			}
		},
	}
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
type reshape[E mem.Word] struct {
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
	// block is the reshape's send block: plan.Send[i]'s payload in wire
	// format at byte wire.size·Offset, allocated word-aligned (mem.Bytes)
	// so that every payload views as its elements. Pack writes into that
	// view, and the transport sends the same memory as bytes or float64
	// values. It is materialised by the first execute and packed in place
	// by every later one. lease is the id of plan.Send[0]'s
	// send-completion lease (the others follow in order), or 0: only the
	// two-sided all-to-all hands the payloads to their receivers as-is,
	// every other transport is done with them when it returns.
	block []byte
	lease int
	// stage is the narrowing codec's element scratch (nil otherwise).
	stage  []E
	outBuf []E
}

func newReshape[E mem.Word](pp *pipe, wire codec[E], from, to layout, label string) *reshape[E] {
	me := pp.c.Rank()
	r := &reshape[E]{
		pp:         pp,
		wire:       wire,
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
	elem, vals := r.wire.size, r.wire.size/8
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
	if r.block == nil {
		r.materialize()
	}

	// Pack every destination's overlap, reordered to the target layout,
	// straight into its payload of the send block — unless its receiver
	// still holds that payload from the last call (the lease is busy), in
	// which case it goes out in a fresh buffer. Destinations with no
	// overlap keep nil payloads (the transports read them as
	// zero-length).
	pp.kernel(obs.PhasePack, &pp.profile.Pack, sendWire, dev.CopyCost(sendWire), func() {
		for i, t := range r.plan.Send {
			lo, hi := r.wire.size*t.Offset, r.wire.size*(t.Offset+t.Count)
			buf := r.block[lo:hi:hi]
			if r.lease != 0 {
				buf, pp.sendLease[t.Rank] = c.LeasedBuf(r.lease+i, buf)
			}
			if r.wire.narrow == nil {
				grid.Pack(local, r.fromBox, r.fromOrder, t.Sub, r.toOrder, mem.View[E](buf))
			} else {
				grid.Pack(local, r.fromBox, r.fromOrder, t.Sub, r.toOrder, r.stage)
				r.wire.narrow(buf, r.stage[:t.Count])
			}
			if byBytes {
				pp.sendBytes[t.Rank] = buf
			} else {
				pp.sendVals[t.Rank] = mem.View[float64](buf)
			}
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
			var in []E
			switch {
			case !byBytes:
				in = mem.View[E](recvVals[t.Rank])
			case r.wire.narrow == nil:
				in = mem.View[E](recvBytes[t.Rank][:r.wire.size*t.Count])
			default:
				in = r.stage[:t.Count]
				r.wire.widen(recvBytes[t.Rank][:r.wire.size*t.Count], in)
			}
			grid.Unpack(in, t.Sub, out, r.toBox, r.toOrder)
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

// materialize allocates the reshape's send block (and the narrowing
// codec's stage scratch), and the plan's headers the first time one is
// needed.
func (r *reshape[E]) materialize() {
	pp := r.pp
	p := pp.c.Size()
	r.block = mem.Bytes(r.wire.size * r.plan.SendTotal)
	if r.wire.narrow != nil {
		r.stage = make([]E, max(maxCount(r.plan.Send), maxCount(r.plan.Recv)))
	}
	if r.x.bytes == nil {
		if pp.sendVals == nil {
			pp.sendVals = make([][]float64, p)
		}
		return
	}
	if pp.sendBytes == nil {
		pp.sendBytes, pp.sendLease = make([][]byte, p), make([]int, p)
	}
}
