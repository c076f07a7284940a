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

	// The per-destination headers the byte transports take: P-length,
	// filled and cleared by each execute, so the plan's reshapes share
	// one set, allocated by the first reshape that needs it. sendLease
	// holds the lease ids beside sendBytes (all zero but for the
	// two-sided all-to-all).
	sendBytes [][]byte
	sendLease []int
	// scratch holds the one peer's values a compressed transport is
	// encoding or decoding (reshape.Send and Recv).
	scratch []float64
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
// two-sided transports, which keep none). bytes takes the packed
// payloads and their lease ids beside them (see mpi.AlltoallvLeased;
// all zero when they carry none). vals, a compressed transport, takes
// the reshape itself as its exchange.Payloads and packs and unpacks one
// peer at a time through it.
type transport struct {
	bytes  func(send [][]byte, lease []int) [][]byte
	vals   func(exchange.Payloads)
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
	// block is the byte transports' send block: plan.Send[i]'s payload in
	// wire format at byte wire.size·Offset (at slot·Rank when slot, the
	// uniform block of Bruck, is set), allocated word-aligned (mem.Bytes)
	// so that every payload views as its elements. Pack writes into that
	// view, and the transport sends the same memory. It is materialised
	// by the first execute and packed in place by every later one. lease
	// is the id of plan.Send[0]'s send-completion lease (the others
	// follow in order), or 0: only the two-sided all-to-all hands the
	// payloads to their receivers as-is, every other transport is done
	// with them when it returns.
	block []byte
	slot  int
	lease int
	// in is execute's input while a compressed transport runs: Send
	// packs from it.
	in []E
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

	// The transport keys off the resolved choice, never off pp.opts, so
	// a tuned stage is constructed and executed exactly like — and is
	// bit-identical to — the same stage under fixed Options.
	choice := pp.opts.choice(label)
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
		if src != me {
			return transferWith(pl.Recv, src).Count
		}
		return transferWith(pl.Send, dst).Count
	}
}

// transferWith returns the transfer with peer in the rank-sorted list
// ts, or the empty Transfer if there is none.
func transferWith(ts []grid.Transfer, peer int) grid.Transfer {
	i := sort.Search(len(ts), func(i int) bool { return ts[i].Rank >= peer })
	if i == len(ts) || ts[i].Rank != peer {
		return grid.Transfer{}
	}
	return ts[i]
}

// newTransport builds the exchange a choice names — the one place that
// maps a Backend onto an implementation. The two-sided all-to-all also
// registers the reshape's send-completion leases, and a compressed
// backend grows the plan's scratch to the reshape's largest transfer.
func (r *reshape[E]) newTransport(choice ExchangeChoice, simPlan grid.Plan) transport {
	pp := r.pp
	c := pp.c
	p := c.Size()
	elem, vals := r.wire.size, r.wire.size/8
	overlap, simOverlap := pairCount(r.plan, c.Rank()), pairCount(simPlan, c.Rank())
	maxSend := func(pl grid.Plan) int {
		return int(c.AllreduceFloat64("max", float64(maxCount(pl.Send))))
	}

	if n := vals * max(maxCount(r.plan.Send), maxCount(r.plan.Recv)); choice.Backend.compressed() && len(pp.scratch) < n {
		pp.scratch = make([]float64, n)
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
		// Every payload is packed at the start of its destination's
		// uniform slot of the block (bytes past the overlap travel but
		// are never unpacked), and Bruck runs in place on the block.
		r.slot = block
		bruck := exchange.NewBruck(c, block, logical)
		return transport{bytes: func([][]byte, []int) [][]byte {
			if block == 0 {
				return nil
			}
			return bruck.Exchange(r.block)
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
		return transport{vals: cosc.ExchangeWith, ledger: cosc}
	case BackendCompressedTwoSided:
		c2s := exchange.NewTwoSidedCompressed(c, choice.Method, pp.stream,
			func(dst, src int) int { return vals * overlap(dst, src) })
		c2s.SetLabel(r.label)
		c2s.SimCounts = func(dst, src int) int { return vals * simOverlap(dst, src) }
		return transport{vals: c2s.ExchangeWith}
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
	out := r.output()

	// A compressed transport packs and unpacks one peer at a time inside
	// its codec kernels (Send and Received below), so there the pack and
	// unpack kernels charge their time with no host work of their own.
	var pack, unpack func()
	var recv [][]byte
	if byBytes {
		if r.block == nil {
			r.materialize()
		}
		// Pack every destination's overlap, reordered to the target
		// layout, straight into its payload of the send block — unless
		// its receiver still holds that payload from the last call (the
		// lease is busy), in which case it goes out in a fresh buffer.
		// Destinations with no overlap keep nil payloads (the
		// transports read them as zero-length).
		pack = func() {
			for i, t := range r.plan.Send {
				lo := r.wire.size * t.Offset
				if r.slot > 0 {
					lo = r.slot * t.Rank
				}
				hi := lo + r.wire.size*t.Count
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
				pp.sendBytes[t.Rank] = buf
			}
		}
		// Unpack into the target layout.
		unpack = func() {
			for _, t := range r.plan.Recv {
				wire := recv[t.Rank][:r.wire.size*t.Count]
				var in []E
				if r.wire.narrow == nil {
					in = mem.View[E](wire)
				} else {
					in = r.stage[:t.Count]
					r.wire.widen(wire, in)
				}
				grid.Unpack(in, t.Sub, out, r.toBox, r.toOrder)
			}
		}
	}
	pp.kernel(obs.PhasePack, &pp.profile.Pack, sendWire, dev.CopyCost(sendWire), pack)

	tExchange := c.Now()
	rk.Begin(obs.TrackHost, obs.PhaseExchange, tExchange)
	if byBytes {
		recv = r.x.bytes(pp.sendBytes, pp.sendLease)
		for _, t := range r.plan.Send {
			pp.sendBytes[t.Rank], pp.sendLease[t.Rank] = nil, 0
		}
	} else {
		r.in = local
		r.x.vals(r)
		r.in = nil
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

	pp.kernel(obs.PhaseUnpack, &pp.profile.Unpack, recvWire, dev.CopyCost(recvWire), unpack)
	// Hand the senders their leased buffers back.
	if r.lease != 0 {
		c.ReleaseRecv()
	}
	return out
}

// Send packs rank dst's overlap of the input, reordered to the target
// layout, into the plan's scratch: the values a compressed transport
// encodes next (exchange.Payloads).
func (r *reshape[E]) Send(dst int) []float64 {
	t := transferWith(r.plan.Send, dst)
	if t.Count == 0 {
		return nil
	}
	buf := r.pp.scratch[:r.wire.size/8*t.Count]
	grid.Pack(r.in, r.fromBox, r.fromOrder, t.Sub, r.toOrder, mem.View[E](buf))
	return buf
}

// Recv returns the scratch that rank src's values decode into.
func (r *reshape[E]) Recv(src int) []float64 {
	return r.pp.scratch[:r.wire.size/8*transferWith(r.plan.Recv, src).Count]
}

// Received unpacks rank src's decoded values into the output.
func (r *reshape[E]) Received(src int) {
	t := transferWith(r.plan.Recv, src)
	grid.Unpack(mem.View[E](r.Recv(src)), t.Sub, r.outBuf, r.toBox, r.toOrder)
}

// output returns the reshape's output buffer, allocated on first use
// like the send buffers, so a reshape that never runs holds none.
func (r *reshape[E]) output() []E {
	if r.outBuf == nil {
		r.outBuf = make([]E, r.toBox.Count())
	}
	return r.outBuf
}

// materialize allocates a byte transport's send block (p uniform slots
// on Bruck), the narrowing codec's stage scratch, and the plan's headers
// the first time one is needed.
func (r *reshape[E]) materialize() {
	pp := r.pp
	p := pp.c.Size()
	r.block = mem.Bytes(max(r.slot*p, r.wire.size*r.plan.SendTotal))
	if r.wire.narrow != nil {
		r.stage = make([]E, max(maxCount(r.plan.Send), maxCount(r.plan.Recv)))
	}
	if pp.sendBytes == nil {
		pp.sendBytes, pp.sendLease = make([][]byte, p), make([]int, p)
	}
}
