package netsim

import (
	"container/heap"
	"fmt"
	"runtime"
)

// Packet is a delivered message as seen by the receiver; a fault-free
// one-sided put is drained (DrainPuts), never received.
type Packet struct {
	Src     int
	Tag     int
	Payload []byte // nil for phantom (metadata-only) transfers
	Bytes   int    // logical size used for timing
	Meta    int    // caller-defined metadata (a window offset, a send lease)
	Arrival float64

	unmatched bool // bypasses the matching engine (one-sided put)
}

// TraceEvent describes one completed transfer reservation.
type TraceEvent struct {
	Src, Dst, Tag int
	Bytes         int
	// Kind is "local", "intra", or "inter".
	Kind string
	// SrcNode and DstNode identify the link endpoints: an inter transfer
	// occupies SrcNode's egress NIC and DstNode's ingress NIC, an intra
	// transfer the shared bus of SrcNode (== DstNode).
	SrcNode, DstNode int
	// Injected is when the sender proceeded; End when the transfer left
	// the path resources; Arrival when the receiver can observe it.
	Injected, End, Arrival float64
	// Start is when the transfer began occupying its first path resource
	// (the egress NIC slot for inter, the bus slot for intra; Injected for
	// local copies), and Ser is the serialization time it held each
	// resource: an inter transfer occupies the egress for [Start,
	// Start+Ser] and the ingress for [End−Ser, End]. Because each resource
	// is a FIFO bandwidth server, these occupancy windows are disjoint per
	// resource — exact utilization accounting needs no inference.
	Start, Ser float64
}

// Stats aggregates traffic counters for a run.
type Stats struct {
	Messages   int
	BytesIntra int64 // between ranks of one node
	BytesInter int64 // across nodes
	BytesLocal int64 // rank to itself

	// One-sided attribution: puts are the unmatched transfers that
	// bypass the receiver's matching engine, with their byte volume
	// (also included in the Bytes* totals above); Fences and Flushes
	// count epoch-close and put-throttling waits reported by the
	// runtime layer via CountFence/CountFlush.
	Puts     int
	BytesPut int64
	Fences   int
	Flushes  int

	// Faults counts injected faults and transport recovery work;
	// all-zero unless a FaultPlan was attached to the Config.
	Faults FaultStats
}

// Result is returned by Run.
type Result struct {
	// Time is the virtual completion time of the slowest rank.
	Time float64
	// Clocks holds each rank's final virtual clock.
	Clocks []float64
	Stats  Stats
}

type pktKey struct{ src, tag int }

type reqKind uint8

const (
	_ reqKind = iota
	reqDeliver
	reqMatch
	// reqResolved marks a formerly blocked match whose packet has already
	// been handed over by deliver; the scheduler only needs to resume it.
	reqResolved
	reqDrain // DrainPuts: wait for want puts on tag
)

type request struct {
	kind      reqKind
	dst       int
	tag       int
	src       int
	payload   []byte
	bytes     int
	meta      int
	extra     float64 // additional arrival latency (protocol surcharge)
	proto     float64 // per-message resource occupancy (two-sided protocol processing)
	deadline  float64 // match watchdog deadline (0 = wait forever)
	unmatched bool
	want      int // puts a drain waits for
}

// Proc is the handle a rank program uses to interact with the simulator.
// It must only be used from the goroutine running that rank's body.
type Proc struct {
	eng      *Engine
	rank     int
	node     int
	clock    float64
	wake     chan struct{}
	req      request
	resp     Packet
	blocked  bool
	pending  pktKey
	deadline float64 // watchdog deadline of the blocked match (0 = none)
	timedOut bool
	crashed  bool
	// inbox holds, per source rank, the packets queued for this rank in
	// arrival order: a circular list, inbox[src] its newest node (whose
	// next is the oldest). Matching walks one source's list for the
	// oldest packet with the tag, which is MPI's per-(src, tag) FIFO.
	inbox    []*pktNode
	buffered int // matchable packets queued (unexpected-queue length)
	// A put ledger per tag; held is the one a drain handed out.
	ledgers []*putLedger
	held    *putLedger
	done    bool
	err     interface{} // recovered panic value
}

// Rank returns this rank's id.
func (p *Proc) Rank() int { return p.rank }

// Node returns the node hosting this rank.
func (p *Proc) Node() int { return p.node }

// Size returns the total number of ranks.
func (p *Proc) Size() int { return len(p.eng.procs) }

// Config returns the machine description.
func (p *Proc) Config() Config { return p.eng.cfg }

// Now returns the rank's virtual clock in seconds.
func (p *Proc) Now() float64 { return p.clock }

// Elapse advances the rank's virtual clock by d seconds of local work
// (compute, kernel time, ...). It involves no scheduling.
func (p *Proc) Elapse(d float64) {
	if d < 0 {
		panic("netsim: negative elapse")
	}
	p.clock += d
}

// AdvanceTo raises the rank's clock to at least t (used to wait for a
// locally known event such as a GPU kernel completion).
func (p *Proc) AdvanceTo(t float64) {
	if t > p.clock {
		p.clock = t
	}
}

// CountFence and CountFlush let the runtime layer attribute one-sided
// synchronization events (window fences, put-throttling flushes) to the
// run's Stats; they do not touch the clock. Only the body holding the
// baton runs, so they count straight into the engine's Stats.
func (p *Proc) CountFence() { p.eng.stats.Fences++ }

// CountFlush counts one put-throttling flush wait (see CountFence).
func (p *Proc) CountFlush() { p.eng.stats.Flushes++ }

// Send transfers a message of the given logical size toward dst, tagged
// tag. payload may be nil for phantom transfers; it is handed to the
// receiver as-is, so the caller must not mutate it until the receiver is
// done with it. The engine never signals that: a layer above that reuses
// send buffers needs its own completion handshake (mpi's send leases
// carry theirs in Packet.Meta). Send
// returns once the message is injected (sender overhead elapsed); the
// transfer itself completes in the background at a time the receiver
// observes as Packet.Arrival.
func (p *Proc) Send(dst, tag int, payload []byte, bytes int) {
	p.SendDelayed(dst, tag, payload, bytes, 0)
}

// SendDelayed is Send with an additional arrival-latency surcharge,
// used by higher layers to model protocol round trips (e.g. the
// rendezvous handshake of large two-sided messages) without a separate
// progress engine.
func (p *Proc) SendDelayed(dst, tag int, payload []byte, bytes int, extraLatency float64) {
	p.SendMsg(dst, tag, SendOpts{Payload: payload, Bytes: bytes, ExtraLatency: extraLatency})
}

// SendOpts carries the optional parameters of SendMsg.
type SendOpts struct {
	Payload []byte
	Bytes   int
	Meta    int // delivered as Packet.Meta (e.g. a window offset)
	// ExtraLatency is added to the arrival time (protocol round trips).
	ExtraLatency float64
	// ProtoOverhead additionally occupies the transfer's path resources,
	// modeling per-message protocol processing of two-sided transports
	// (rendezvous progression); one-sided RDMA puts leave it zero.
	ProtoOverhead float64
	// Unmatched marks one-sided transfers that bypass the receiver's
	// message-matching engine: they neither occupy the unexpected queue
	// nor pay the per-entry matching cost. Only under a FaultPlan are
	// they received; otherwise they are drained (DrainPuts).
	Unmatched bool
}

// SendMsg is the most general send. It returns the transfer's arrival
// time at the destination, which higher layers may use to implement
// flush-style completion waits. A fault-free put is drained, not received.
func (p *Proc) SendMsg(dst, tag int, opts SendOpts) (arrival float64) {
	if dst < 0 || dst >= len(p.eng.procs) {
		panic(fmt.Sprintf("netsim: send to invalid rank %d", dst))
	}
	if opts.ExtraLatency < 0 || opts.ProtoOverhead < 0 {
		panic("netsim: negative protocol surcharge")
	}
	p.req = request{kind: reqDeliver, dst: dst, tag: tag, src: p.rank,
		payload: opts.Payload, bytes: opts.Bytes, meta: opts.Meta,
		extra: opts.ExtraLatency, proto: opts.ProtoOverhead, unmatched: opts.Unmatched}
	p.yield()
	return p.resp.Arrival
}

// PutRecord is a drained put's source, Meta (window offset) and payload.
type PutRecord struct {
	Src, Offset int
	Payload     []byte
}

// putLedger counts one tag's fault-free puts since the last drain.
type putLedger struct {
	tag, landed int
	latest      float64
	bytes       int64
	recs        []PutRecord // one per put with a payload; reused across epochs
}

// DrainPuts closes an epoch of fault-free one-sided puts on tag: it
// blocks until n have landed on this rank, raises the clock to the
// latest arrival (puts pay no matching cost), and returns the records of
// those with a payload, in landing order, and their logical bytes. The
// rank's next request consumes the records. A drain is one epoch: n must
// be exact, and the next epoch's puts must not land before the records
// are consumed. The engine panics, naming the rank, the tag and both
// counts, if a drain finds more than n puts or a put lands on unconsumed
// records.
func (p *Proc) DrainPuts(tag, n int) (recs []PutRecord, bytes int64) {
	p.req = request{kind: reqDrain, tag: tag, want: n}
	p.yield()
	return p.held.recs, p.held.bytes
}

// Recv blocks until a message from src with the given tag arrives, and
// returns it. The rank's clock advances to the arrival time.
func (p *Proc) Recv(src, tag int) Packet {
	pkt, _ := p.RecvDeadline(src, tag, 0)
	return pkt
}

// RecvDeadline is Recv with a virtual-time watchdog: if no matching
// message can arrive by the deadline, it returns ok == false with the
// rank's clock advanced to the deadline. A deadline of 0 waits forever
// (plain Recv). The timeout fires only once the engine has no other
// runnable work — exactly the condition under which the receive would
// otherwise hang — so healthy traffic is never cut short.
func (p *Proc) RecvDeadline(src, tag int, deadline float64) (Packet, bool) {
	if src < 0 || src >= len(p.eng.procs) {
		panic(fmt.Sprintf("netsim: receive from invalid rank %d", src))
	}
	p.req = request{kind: reqMatch, src: src, tag: tag, deadline: deadline}
	p.yield()
	if p.timedOut {
		p.timedOut = false
		return Packet{}, false
	}
	return p.resp, true
}

// yield hands p's request to the engine. During bring-up it goes to
// Run's goroutine. Otherwise p holds the baton: it processes requests
// in (clock, rank) order until some proc must resume, and returns at
// once if that is p, else wakes it and parks. With nothing left to
// process, the baton goes back to Run.
func (p *Proc) yield() {
	if l := p.held; l != nil {
		clear(l.recs)
		*l, p.held = putLedger{tag: l.tag, recs: l.recs[:0]}, nil
	}
	eng := p.eng
	next := p
	if eng.baton && eng.ready.Len() > 0 && earlier(eng.ready[0], p) {
		next, eng.ready[0] = eng.ready[0], p
		heap.Fix(&eng.ready, 0)
	}
	for eng.baton {
		if eng.discardCrashed(next) {
			eng.alive--
		} else if !eng.process(next) {
			if next != p {
				next.wake <- struct{}{}
				p.park()
			}
			return
		}
		if eng.ready.Len() == 0 {
			break
		}
		next = heap.Pop(&eng.ready).(*Proc)
	}
	eng.yieldCh <- p
	p.park()
}

// park blocks p's body until the scheduler wakes it. A wake from
// release, at the end of the run, unwinds the body instead.
func (p *Proc) park() {
	<-p.wake
	if p.eng.exiting {
		runtime.Goexit()
	}
}

// Engine drives a set of rank goroutines through virtual time.
type Engine struct {
	cfg     Config
	procs   []*Proc
	egress  []resource
	ingress []resource
	bus     []resource
	yieldCh chan *Proc
	ready   procHeap
	baton   bool // sequential bring-up is over: yielding bodies schedule
	exiting bool // the run is over: a woken body unwinds (release)
	alive   int  // bodies neither finished nor crashed
	stats   Stats
	inj     *injector // nil unless cfg.Faults is set
	// check selects error-collecting mode (RunChecked): rank panics and
	// deadlocks become a returned error instead of an engine panic.
	check bool
	fails []RankFailure

	free   *pktNode  // matched pooled inbox nodes, for reuse
	pooled int       // pooled nodes allocated so far (≤ nodePool)
	slab   []pktNode // uncarved rest of the current overflow slab
}

// Run executes body once per rank of the machine described by cfg and
// returns the virtual completion time and traffic statistics. Bodies
// interact through their Proc handles only. Run panics if the rank
// programs deadlock or if any body panics.
func Run(cfg Config, body func(*Proc)) Result {
	res, err := run(cfg, body, false)
	if err != nil {
		panic(err) // unreachable: unchecked mode panics at the source
	}
	return res
}

// RunChecked is Run for hostile conditions: a panicking rank body or a
// deadlock does not panic the engine but terminates the run and is
// reported in the returned *RunError (with the partial Result of the
// ranks that did finish). Use it with a FaultPlan so crashed ranks and
// exhausted retries surface as diagnostics instead of program aborts.
func RunChecked(cfg Config, body func(*Proc)) (Result, error) {
	return run(cfg, body, true)
}

func run(cfg Config, body func(*Proc), check bool) (Result, error) {
	cfg.validate()
	eng := newEngine(cfg, body, check)
	defer eng.release()
	return eng.runSequential()
}

// release ends, on every exit path of run, the bodies it left parked:
// crashed, deadlocked, or never resumed before a panic. Each is woken to
// unwind (park); with the baton withdrawn, a deferred call that yields
// only hands its request back here, so nothing touches the engine.
func (eng *Engine) release() {
	eng.exiting, eng.baton = true, false
	for _, p := range eng.procs {
		for !p.done {
			p.wake <- struct{}{}
			<-eng.yieldCh
		}
	}
}

// newEngine builds the engine (one P×P table holds every inbox) and
// spawns one parked goroutine per rank running body, none if body is
// nil; nothing runs until the scheduler wakes it.
func newEngine(cfg Config, body func(*Proc), check bool) *Engine {
	n := cfg.Ranks()
	eng := &Engine{
		cfg:     cfg,
		procs:   make([]*Proc, n),
		egress:  make([]resource, cfg.Nodes),
		ingress: make([]resource, cfg.Nodes),
		bus:     make([]resource, cfg.Nodes),
		yieldCh: make(chan *Proc),
		alive:   n,
		check:   check,
	}
	if cfg.Faults != nil {
		eng.inj = newInjector(cfg.Faults, &eng.stats.Faults)
	}
	inboxes := make([]*pktNode, n*n)
	for r := range eng.procs {
		eng.procs[r] = &Proc{
			eng:   eng,
			rank:  r,
			node:  cfg.NodeOf(r),
			wake:  make(chan struct{}),
			inbox: inboxes[r*n : (r+1)*n : (r+1)*n],
		}
	}
	if body == nil {
		return eng
	}
	for _, p := range eng.procs {
		go func() {
			defer func() {
				p.err = recover()
				p.done = true
				eng.yieldCh <- p
			}()
			p.park()
			body(p)
		}()
	}
	return eng
}

// runSequential is the classic cooperative engine: exactly one rank
// goroutine is runnable at any moment and requests are processed in
// (clock, rank) order, after bring-up by the yielding bodies themselves
// (Proc.yield). Body panics and deadlocks still surface here.
func (eng *Engine) runSequential() (Result, error) {
	// Pinning to one OS thread avoids cross-core channel handoffs,
	// which dominate wall time at large rank counts.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// Bring every proc to its first request, then pass the baton.
	for _, p := range eng.procs {
		eng.resume(p)
	}
	eng.baton = true
	var deadlock *DeadlockError
	for eng.alive > 0 {
		if eng.ready.Len() == 0 {
			if eng.fireDeadline() {
				continue
			}
			deadlock = eng.deadlockDiag()
			if !eng.check {
				panic(deadlock.Error() + "\n")
			}
			break
		}
		p := heap.Pop(&eng.ready).(*Proc)
		if eng.discardCrashed(p) {
			eng.alive--
		} else if !eng.process(p) {
			eng.resume(p)
		}
	}
	return eng.finalize(deadlock)
}

// process handles p's pending request, returning true if p blocked on
// an unmatched receive or drain (and so must not be resumed).
func (eng *Engine) process(p *Proc) (blocked bool) {
	switch p.req.kind {
	case reqDeliver:
		eng.deliver(p)
	case reqMatch:
		src, deadline := p.req.src, p.req.deadline
		prev := p.find(src, p.req.tag)
		switch {
		case prev == nil:
			p.blocked = true
			p.pending = pktKey{src, p.req.tag}
			p.deadline = deadline
			return true
		case deadline == 0 || prev.next.pkt.Arrival <= deadline:
			eng.completeMatch(p, src, prev)
		default:
			// A message is queued but arrives after the deadline:
			// the watchdog fires at the deadline instant.
			if deadline > p.clock {
				p.clock = deadline
			}
			p.timedOut = true
		}
	case reqDrain:
		l := p.ledger(p.req.tag)
		if l.landed > p.req.want {
			panic(fmt.Sprintf("netsim: rank %d drains %d puts on tag %d but %d landed", p.rank, p.req.want, l.tag, l.landed))
		}
		if p.blocked = l.landed < p.req.want; p.blocked {
			p.pending = pktKey{-1, p.req.tag}
			return true
		}
		p.clock, p.held = max(p.clock, l.latest), l
	case reqResolved:
	default:
		panic("netsim: invalid request in scheduler")
	}
	return false
}

// discardCrashed parks p at its scheduled crash time: the pending
// request is dropped and p is never resumed. Peers observe the silence
// through watchdog deadlines or the deadlock diagnostic.
func (eng *Engine) discardCrashed(p *Proc) bool {
	if eng.inj == nil || p.crashed {
		return false
	}
	if eng.inj.crashed(p.rank, p.clock) {
		p.crashed = true
		eng.stats.Faults.Crashes++
		if eng.cfg.FaultObserver != nil {
			eng.cfg.FaultObserver(FaultEvent{T: p.clock, Kind: "crash", Src: p.rank, Dst: -1, Tag: -1})
		}
		return true
	}
	return false
}

// finalize assembles the Result.
func (eng *Engine) finalize(deadlock *DeadlockError) (Result, error) {
	res := Result{Stats: eng.stats, Clocks: make([]float64, len(eng.procs))}
	for i, p := range eng.procs {
		res.Clocks[i] = p.clock
		if p.clock > res.Time {
			res.Time = p.clock
		}
	}
	if len(eng.fails) > 0 || deadlock != nil {
		return res, &RunError{Failures: eng.fails, Deadlock: deadlock}
	}
	return res, nil
}

// retire takes a finished body off the live count; its panic
// propagates (Run) or is collected (RunChecked).
func (eng *Engine) retire(q *Proc) {
	eng.alive--
	if q.err != nil {
		if !eng.check {
			panic(q.err)
		}
		eng.fails = append(eng.fails, RankFailure{Rank: q.rank, Value: q.err})
	}
}

// resume wakes p and waits for the baton to come back: a body
// finished, or found nothing left to process. During bring-up, a
// yielding p with its first request is queued.
func (eng *Engine) resume(p *Proc) {
	p.wake <- struct{}{}
	switch q := <-eng.yieldCh; {
	case q.done:
		eng.retire(q)
	case !eng.baton:
		heap.Push(&eng.ready, q)
	}
}

// fireDeadline resolves the earliest watchdog deadline among blocked
// receivers when no other work remains: that receiver resumes with a
// timeout, its clock advanced to the deadline. Returns false when no
// blocked proc carries a deadline (a true deadlock).
func (eng *Engine) fireDeadline() bool {
	var victim *Proc
	for _, p := range eng.procs {
		if !p.blocked || p.deadline == 0 {
			continue
		}
		if victim == nil || p.deadline < victim.deadline ||
			(p.deadline == victim.deadline && p.rank < victim.rank) {
			victim = p
		}
	}
	if victim == nil {
		return false
	}
	victim.blocked = false
	if victim.deadline > victim.clock {
		victim.clock = victim.deadline
	}
	victim.deadline = 0
	victim.timedOut = true
	victim.req.kind = reqResolved
	heap.Push(&eng.ready, victim)
	return true
}

// deliver processes a send request: books the path resources, computes
// the arrival time, and hands the packet to the destination (resolving a
// blocked receiver if one is waiting on the matching key). With a fault
// injector attached it also decides the message's fate: sender stalls,
// degraded bandwidth, latency spikes, transparent transport retries
// (each adding backoff delay to the arrival), permanent loss, silent
// payload corruption, and duplicate delivery.
func (eng *Engine) deliver(p *Proc) {
	req := &p.req
	cfg := &eng.cfg
	inj := eng.inj
	if inj != nil {
		if st := inj.stall(); st > 0 {
			p.clock += st
			if cfg.FaultObserver != nil {
				cfg.FaultObserver(FaultEvent{T: p.clock, Kind: "stall", Src: p.rank, Dst: req.dst, Tag: req.tag, Delay: st})
			}
		}
	}
	injected := p.clock + cfg.SendOverhead
	srcNode, dstNode := p.node, cfg.NodeOf(req.dst)

	var start, end, ser, latency float64
	var kind string
	switch {
	case req.dst == p.rank:
		ser = float64(req.bytes) / cfg.LocalBW
		start = injected
		end = injected + ser
		eng.stats.BytesLocal += int64(req.bytes)
		kind = "local"
	case srcNode == dstNode:
		bw := cfg.IntraBW
		if inj != nil {
			bw *= inj.bwFactor(srcNode, srcNode)
		}
		ser = float64(req.bytes)/bw + req.proto
		start, end = eng.bus[srcNode].reserve(injected, ser)
		latency = cfg.IntraLatency
		eng.stats.BytesIntra += int64(req.bytes)
		kind = "intra"
	default:
		bw := cfg.InterBW
		if inj != nil {
			bw *= inj.bwFactor(srcNode, dstNode)
		}
		ser = float64(req.bytes)/bw + req.proto
		start, end = reservePair(&eng.egress[srcNode], &eng.ingress[dstNode], injected, ser)
		latency = cfg.InterLatency
		eng.stats.BytesInter += int64(req.bytes)
		kind = "inter"
	}
	eng.stats.Messages++
	if req.unmatched {
		eng.stats.Puts++
		eng.stats.BytesPut += int64(req.bytes)
	}
	extra := req.extra
	payload := req.payload
	lost := false
	duplicated := false
	if inj != nil && req.dst != p.rank {
		fault := func(kind string, delay float64) {
			if cfg.FaultObserver != nil {
				cfg.FaultObserver(FaultEvent{T: injected, Kind: kind, Src: p.rank, Dst: req.dst, Tag: req.tag, Delay: delay})
			}
		}
		if sp := inj.spike(); sp > 0 {
			extra += sp
			fault("spike", sp)
		}
		delay, l := inj.transfer()
		extra += delay
		lost = l
		if delay > 0 {
			fault("retry", delay)
		}
		if lost {
			fault("lost", 0)
		} else {
			if bad := inj.corrupt(payload, req.unmatched); bad != nil {
				payload = bad
				fault("silent_corrupt", 0)
			}
			if duplicated = inj.duplicate(); duplicated {
				fault("duplicate", 0)
			}
		}
	}
	if cfg.Tracer != nil {
		cfg.Tracer(TraceEvent{
			Src: p.rank, Dst: req.dst, Tag: req.tag, Bytes: req.bytes,
			Kind: kind, SrcNode: srcNode, DstNode: dstNode,
			Injected: injected, End: end, Arrival: end + latency + extra,
			Start: start, Ser: ser,
		})
	}

	pkt := Packet{Src: p.rank, Tag: req.tag, Payload: payload, Bytes: req.bytes, Meta: req.meta, Arrival: end + latency + extra, unmatched: req.unmatched}
	p.resp = pkt
	p.clock = injected
	if req.unmatched && inj == nil {
		eng.land(eng.procs[req.dst], pkt)
		return
	}
	if lost {
		// The transport gave up: the sender proceeds (it cannot know),
		// the receiver never sees the packet — its watchdog deadline or
		// the deadlock diagnostic reports the hole.
		return
	}
	dst := eng.procs[req.dst]
	copies := 1
	if duplicated {
		copies = 2
	}
	for i := 0; i < copies; i++ {
		eng.push(dst, pkt)
		if !pkt.unmatched {
			dst.buffered++
		}
	}

	if dst.blocked && dst.pending == (pktKey{p.rank, req.tag}) && (dst.deadline == 0 || pkt.Arrival <= dst.deadline) {
		dst.blocked = false
		dst.deadline = 0
		eng.completeMatch(dst, p.rank, dst.find(p.rank, req.tag))
		dst.req.kind = reqResolved
		heap.Push(&eng.ready, dst)
	}
}

// land counts a fault-free put in its target's ledger for the tag and
// resolves the target's drain if this was the last put it waits for.
func (eng *Engine) land(dst *Proc, pkt Packet) {
	l := dst.ledger(pkt.Tag)
	if dst.held == l {
		panic(fmt.Sprintf("netsim: put %d lands on rank %d tag %d before its %d drained puts are consumed", l.landed+1, dst.rank, l.tag, l.landed))
	}
	l.landed++
	l.latest, l.bytes = max(l.latest, pkt.Arrival), l.bytes+int64(pkt.Bytes)
	if pkt.Payload != nil {
		l.recs = append(l.recs, PutRecord{Src: pkt.Src, Offset: pkt.Meta, Payload: pkt.Payload})
	}
	if dst.blocked && dst.req.kind == reqDrain && dst.req.tag == pkt.Tag && l.landed == dst.req.want {
		dst.blocked, dst.req.kind = false, reqResolved
		dst.clock, dst.held = max(dst.clock, l.latest), l
		heap.Push(&eng.ready, dst)
	}
}

// ledger returns p's put ledger for tag, adding it on first use.
func (p *Proc) ledger(tag int) *putLedger {
	for _, l := range p.ledgers {
		if l.tag == tag {
			return l
		}
	}
	p.ledgers = append(p.ledgers, &putLedger{tag: tag})
	return p.ledgers[len(p.ledgers)-1]
}

// completeMatch takes the packet after prev into p.resp and raises p's
// clock to its arrival, charging the message-matching cost for two-sided
// packets (proportional to the unexpected-queue depth).
func (eng *Engine) completeMatch(p *Proc, src int, prev *pktNode) {
	pkt := eng.take(p, src, prev)
	if pkt.Arrival > p.clock {
		p.clock = pkt.Arrival
	}
	if !pkt.unmatched {
		cfg := &eng.cfg
		if cfg.MatchCost > 0 {
			depth := p.buffered
			if cfg.MatchQueueCap > 0 && depth > cfg.MatchQueueCap {
				depth = cfg.MatchQueueCap
			}
			p.clock += cfg.MatchCost * float64(depth)
		}
		p.buffered--
	}
	p.resp = pkt
}

// pktNode is one queued packet of a per-source inbox list.
type pktNode struct {
	pkt    Packet
	next   *pktNode
	pooled bool // recycled through Engine.free when matched
}

// nodePool caps the inbox nodes an engine recycles; a node beyond it is
// carved from a slab of slabNodes and left to the collector once
// matched, because recycling slab nodes would pin whole slabs.
const nodePool, slabNodes = 1024, 256

// push appends pkt to p's inbox for its source.
func (eng *Engine) push(p *Proc, pkt Packet) {
	n := eng.free
	switch {
	case n != nil:
		eng.free = n.next
	case eng.pooled < nodePool:
		eng.pooled++
		n = &pktNode{pooled: true}
	default:
		if len(eng.slab) == 0 {
			eng.slab = make([]pktNode, slabNodes)
		}
		n, eng.slab = &eng.slab[0], eng.slab[1:]
	}
	n.pkt = pkt
	if tail := p.inbox[pkt.Src]; tail != nil {
		n.next, tail.next = tail.next, n
	} else {
		n.next = n
	}
	p.inbox[pkt.Src] = n
}

// find returns the node before the oldest packet from src with the
// given tag in p's inbox (the newest node precedes the oldest), or nil
// if none is queued.
func (p *Proc) find(src, tag int) *pktNode {
	tail := p.inbox[src]
	for prev := tail; prev != nil; prev = prev.next {
		if prev.next.pkt.Tag == tag {
			return prev
		}
		if prev.next == tail {
			break
		}
	}
	return nil
}

// take unlinks the node after prev from p's inbox for src and returns
// its packet. The node is zeroed, so it holds no payload, and goes back
// to the free list if it is a pooled one.
func (eng *Engine) take(p *Proc, src int, prev *pktNode) Packet {
	n := prev.next
	if n == prev {
		p.inbox[src] = nil
	} else if prev.next = n.next; n == p.inbox[src] {
		p.inbox[src] = prev
	}
	pkt, pooled := n.pkt, n.pooled
	*n = pktNode{}
	if pooled {
		n.pooled, n.next, eng.free = true, eng.free, n
	}
	return pkt
}

// deadlockDiag builds the structural deadlock diagnostic: every blocked
// rank's pending (src, tag) or drain at its current clock, in rank order.
func (eng *Engine) deadlockDiag() *DeadlockError {
	d := &DeadlockError{}
	for _, p := range eng.procs {
		if p.blocked {
			op := BlockedOp{Rank: p.rank, Src: p.pending.src, Tag: p.pending.tag, Clock: p.clock}
			if p.req.kind == reqDrain {
				op.Landed, op.Want = p.ledger(op.Tag).landed, p.req.want
			}
			d.Blocked = append(d.Blocked, op)
		}
	}
	return d
}

// procHeap orders procs by clock (rank breaks ties for determinism).
type procHeap []*Proc

func (h procHeap) Len() int           { return len(h) }
func (h procHeap) Less(i, j int) bool { return earlier(h[i], h[j]) }
func (h procHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *procHeap) Push(x interface{}) {
	*h = append(*h, x.(*Proc))
}
func (h *procHeap) Pop() interface{} {
	old := *h
	n := len(old)
	p := old[n-1]
	*h = old[:n-1]
	return p
}

// earlier reports whether a's pending request sorts before b's.
func earlier(a, b *Proc) bool {
	if a.clock != b.clock {
		return a.clock < b.clock
	}
	return a.rank < b.rank
}
