package netsim

import (
	"container/heap"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
)

// Packet is a delivered message as seen by the receiver.
type Packet struct {
	Src     int
	Tag     int
	Payload []byte // nil for phantom (metadata-only) transfers
	Bytes   int    // logical size used for timing
	Meta    int    // caller-defined metadata (e.g. a window offset)
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
	mailbox  map[pktKey][]Packet
	buffered int // matchable packets queued (unexpected-queue length)
	done     bool
	err      interface{} // recovered panic value
	heapIdx  int

	// One-sided synchronization counters (CountFence/CountFlush). They
	// are per-proc — rank bodies increment them while running, which in
	// parallel mode happens on many OS threads at once — and are merged
	// into Stats in rank order when the run finishes, so the totals are
	// identical in both modes.
	fences  int
	flushes int

	// Parallel-mode scheduler state (owned by the scheduler goroutine):
	// lb is the lower bound on the virtual time of this proc's next
	// request while its body runs concurrently (the clock at resume —
	// clocks only grow inside a body), runIdx its slot in the running
	// heap.
	lb     float64
	runIdx int
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
// run's Stats; they do not touch the clock. The counts land in per-proc
// counters (bodies run concurrently in parallel mode; a shared counter
// here would be a data race) and are summed into Stats at the end of
// the run.
func (p *Proc) CountFence() { p.fences++ }

// CountFlush counts one put-throttling flush wait (see CountFence).
func (p *Proc) CountFlush() { p.flushes++ }

// Send transfers a message of the given logical size toward dst, tagged
// tag. payload may be nil for phantom transfers; it is handed to the
// receiver as-is (the caller must not mutate it afterwards). Send
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
	// nor pay the per-entry matching cost.
	Unmatched bool
}

// SendMsg is the most general send. It returns the transfer's arrival
// time at the destination, which higher layers may use to implement
// flush-style completion waits.
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

// Recv blocks until a message from src with the given tag arrives, and
// returns it. The rank's clock advances to the arrival time.
func (p *Proc) Recv(src, tag int) Packet {
	p.req = request{kind: reqMatch, src: src, tag: tag}
	p.yield()
	return p.resp
}

// RecvDeadline is Recv with a virtual-time watchdog: if no matching
// message can arrive by the deadline, it returns ok == false with the
// rank's clock advanced to the deadline. A deadline of 0 waits forever
// (plain Recv). The timeout fires only once the engine has no other
// runnable work — exactly the condition under which the receive would
// otherwise hang — so healthy traffic is never cut short.
func (p *Proc) RecvDeadline(src, tag int, deadline float64) (Packet, bool) {
	p.req = request{kind: reqMatch, src: src, tag: tag, deadline: deadline}
	p.yield()
	if p.timedOut {
		p.timedOut = false
		return Packet{}, false
	}
	return p.resp, true
}

func (p *Proc) yield() {
	p.eng.yieldCh <- p
	<-p.wake
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
	// running holds the procs whose bodies are executing concurrently in
	// parallel mode, ordered by (lb, rank); empty in sequential mode.
	running runHeap
	stats   Stats
	inj     *injector // nil unless cfg.Faults is set
	// check selects error-collecting mode (RunChecked): rank panics and
	// deadlocks become a returned error instead of an engine panic.
	check bool
	fails []RankFailure
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
	if cfg.Parallel || envParallel() {
		return eng.runParallel()
	}
	return eng.runSequential()
}

// envParallel reports whether NETSIM_PARALLEL forces the parallel
// engine for every run regardless of Config.Parallel. It backs the
// `make verify-parallel` tier: the whole test suite re-runs under the
// parallel scheduler without per-test plumbing. Empty or "0" disables.
var envParallel = sync.OnceValue(func() bool {
	v := os.Getenv("NETSIM_PARALLEL")
	return v != "" && v != "0"
})

// newEngine builds the engine and spawns one (parked) goroutine per
// rank; nothing runs until the scheduler wakes it.
func newEngine(cfg Config, body func(*Proc), check bool) *Engine {
	n := cfg.Ranks()
	eng := &Engine{
		cfg:     cfg,
		procs:   make([]*Proc, n),
		egress:  make([]resource, cfg.Nodes),
		ingress: make([]resource, cfg.Nodes),
		bus:     make([]resource, cfg.Nodes),
		yieldCh: make(chan *Proc),
		check:   check,
	}
	if cfg.Faults != nil {
		eng.inj = newInjector(cfg.Faults, &eng.stats.Faults)
	}
	for r := 0; r < n; r++ {
		p := &Proc{
			eng:     eng,
			rank:    r,
			node:    cfg.NodeOf(r),
			wake:    make(chan struct{}),
			mailbox: make(map[pktKey][]Packet),
			heapIdx: -1,
			runIdx:  -1,
		}
		eng.procs[r] = p
		go func() {
			<-p.wake
			defer func() {
				p.err = recover()
				p.done = true
				eng.yieldCh <- p
			}()
			body(p)
		}()
	}
	return eng
}

// runSequential is the classic cooperative engine: exactly one rank
// goroutine is runnable at any moment and the scheduler always resumes
// the pending request with the smallest (clock, rank).
func (eng *Engine) runSequential() (Result, error) {
	// Pinning to one OS thread avoids cross-core channel handoffs,
	// which dominate wall time at large rank counts.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	alive := len(eng.procs)
	// Bring every proc to its first request.
	for _, p := range eng.procs {
		if eng.resume(p) {
			alive--
		}
	}
	var deadlock *DeadlockError
	for alive > 0 {
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
			alive--
			continue
		}
		if !eng.process(p) {
			if eng.resume(p) {
				alive--
			}
		}
	}
	return eng.finalize(deadlock)
}

// runParallel executes rank bodies truly concurrently while keeping
// event processing in the exact total order of the sequential engine,
// so every output is bit-identical (docs/DETERMINISM.md).
//
// The scheme is conservative lookahead over the yield protocol: a
// resumed body owns its clock, which only grows, so the clock captured
// at resume time (Proc.lb) is a lower bound on the virtual time of the
// body's next request. The head of the ready heap is therefore safe to
// process exactly when it sorts before (min lb, rank) over the running
// set — no concurrently executing body can still produce an earlier
// event. When the head is not safe the scheduler blocks for the next
// yield, shrinking the running set until it is. All engine state
// (resources, mailboxes, stats, fault injector, tracer) is touched only
// by this scheduler goroutine, in the sequential processing order;
// bodies only ever touch their own Proc between yields.
func (eng *Engine) runParallel() (Result, error) {
	alive := len(eng.procs)
	// Launch every body; all of them run concurrently from the start.
	for _, p := range eng.procs {
		eng.resumeAsync(p)
	}
	var deadlock *DeadlockError
loop:
	for alive > 0 {
		// Draining may retire the last finishers — re-check before
		// concluding anything from an empty ready+running state.
		if eng.drainYields(&alive); alive == 0 {
			break
		}
		switch {
		case eng.ready.Len() > 0 && eng.safeHead():
			p := heap.Pop(&eng.ready).(*Proc)
			if eng.discardCrashed(p) {
				alive--
				continue
			}
			if !eng.process(p) {
				eng.resumeAsync(p)
			}
		case eng.running.Len() > 0:
			// The earliest pending request may still come from a body
			// that is executing; wait for one to yield or finish.
			eng.admit(<-eng.yieldCh, &alive)
		default:
			// No body running, none ready: all live ranks are blocked —
			// the exact condition of the sequential engine's idle path.
			if eng.fireDeadline() {
				continue
			}
			deadlock = eng.deadlockDiag()
			if !eng.check {
				panic(deadlock.Error() + "\n")
			}
			break loop
		}
	}
	// Failures surfaced in wall-clock completion order; rank order makes
	// the slice deterministic. (The sequential engine reports them in
	// processing order instead, but RunError.Error sorts its lines, so
	// rendered diagnostics match across modes.)
	sort.Slice(eng.fails, func(i, j int) bool { return eng.fails[i].Rank < eng.fails[j].Rank })
	return eng.finalize(deadlock)
}

// process handles p's pending request, returning true if p blocked on
// an unmatched receive (and so must not be resumed).
func (eng *Engine) process(p *Proc) (blocked bool) {
	switch p.req.kind {
	case reqDeliver:
		eng.deliver(p)
	case reqMatch:
		key := pktKey{p.req.src, p.req.tag}
		if q := p.mailbox[key]; len(q) > 0 && (p.req.deadline == 0 || q[0].Arrival <= p.req.deadline) {
			eng.completeMatch(p, key)
		} else if len(q) > 0 && p.req.deadline > 0 {
			// A message is queued but arrives after the deadline:
			// the watchdog fires at the deadline instant.
			if p.req.deadline > p.clock {
				p.clock = p.req.deadline
			}
			p.timedOut = true
		} else {
			p.blocked = true
			p.pending = key
			p.deadline = p.req.deadline
			return true
		}
	case reqResolved:
	default:
		panic("netsim: invalid request in scheduler")
	}
	return false
}

// discardCrashed parks p at its scheduled crash time: the pending
// request is dropped and p is never resumed. Peers observe the silence
// through watchdog deadlines or the deadlock diagnostic. A permanent
// kill is reported with its own event kind ("kill") and counter so the
// recovery controller can tell a respawnable crash from a dead rank.
func (eng *Engine) discardCrashed(p *Proc) bool {
	if eng.inj == nil || p.crashed {
		return false
	}
	if parked, permanent := eng.inj.crashed(p.rank, p.clock); parked {
		p.crashed = true
		eng.stats.Faults.Crashes++
		kind := "crash"
		if permanent {
			eng.stats.Faults.Kills++
			kind = "kill"
		}
		if eng.cfg.FaultObserver != nil {
			eng.cfg.FaultObserver(FaultEvent{T: p.clock, Kind: kind, Src: p.rank, Dst: -1, Tag: -1})
		}
		return true
	}
	return false
}

// finalize merges the per-proc one-sided counters into Stats (in rank
// order — the sums are mode-independent) and assembles the Result.
func (eng *Engine) finalize(deadlock *DeadlockError) (Result, error) {
	res := Result{Stats: eng.stats, Clocks: make([]float64, len(eng.procs))}
	for i, p := range eng.procs {
		res.Stats.Fences += p.fences
		res.Stats.Flushes += p.flushes
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

// resumeAsync wakes p without waiting for its next yield (parallel
// mode). p's clock at this instant becomes its running lower bound.
func (eng *Engine) resumeAsync(p *Proc) {
	p.lb = p.clock
	heap.Push(&eng.running, p)
	p.wake <- struct{}{}
}

// drainYields admits every yield already queued on yieldCh without
// blocking, so the safety check sees the freshest running set.
func (eng *Engine) drainYields(alive *int) {
	for {
		select {
		case q := <-eng.yieldCh:
			eng.admit(q, alive)
		default:
			return
		}
	}
}

// admit moves a yielded proc from the running set to the ready heap
// (or retires it if its body finished).
func (eng *Engine) admit(q *Proc, alive *int) {
	heap.Remove(&eng.running, q.runIdx)
	if q.done {
		*alive--
		if q.err != nil {
			if !eng.check {
				panic(q.err)
			}
			eng.fails = append(eng.fails, RankFailure{Rank: q.rank, Value: q.err})
		}
		return
	}
	heap.Push(&eng.ready, q)
}

// safeHead reports whether the ready heap's minimum request is ordered
// before every request a running body could still produce — i.e. it
// sorts strictly before (lb, rank) of the running heap's minimum. Ties
// on the clock resolve by rank exactly as procHeap orders them.
func (eng *Engine) safeHead() bool {
	if eng.running.Len() == 0 {
		return true
	}
	h, r := eng.ready[0], eng.running[0]
	if h.clock != r.lb {
		return h.clock < r.lb
	}
	return h.rank < r.rank
}

// resume transfers control to p until it yields again; it returns true
// if p finished. A yielding p with a fresh request is queued.
func (eng *Engine) resume(p *Proc) (finished bool) {
	p.wake <- struct{}{}
	q := <-eng.yieldCh
	if q.done {
		if q.err != nil {
			if !eng.check {
				panic(q.err)
			}
			eng.fails = append(eng.fails, RankFailure{Rank: q.rank, Value: q.err})
		}
		return true
	}
	heap.Push(&eng.ready, q)
	return false
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
	if lost {
		// The transport gave up: the sender proceeds (it cannot know),
		// the receiver never sees the packet — its watchdog deadline or
		// the deadlock diagnostic reports the hole.
		return
	}
	dst := eng.procs[req.dst]
	key := pktKey{p.rank, req.tag}
	copies := 1
	if duplicated {
		copies = 2
	}
	for i := 0; i < copies; i++ {
		dst.mailbox[key] = append(dst.mailbox[key], pkt)
		if !pkt.unmatched {
			dst.buffered++
		}
	}

	if dst.blocked && dst.pending == key && (dst.deadline == 0 || pkt.Arrival <= dst.deadline) {
		dst.blocked = false
		dst.deadline = 0
		eng.completeMatch(dst, key)
		dst.req.kind = reqResolved
		heap.Push(&eng.ready, dst)
	}
}

// completeMatch pops the earliest packet for key into p.resp and raises
// p's clock to its arrival, charging the message-matching cost for
// two-sided packets (proportional to the unexpected-queue depth).
func (eng *Engine) completeMatch(p *Proc, key pktKey) {
	q := p.mailbox[key]
	pkt := q[0]
	if len(q) == 1 {
		delete(p.mailbox, key)
	} else {
		p.mailbox[key] = q[1:]
	}
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

// deadlockDiag builds the structural deadlock diagnostic: every blocked
// rank's pending (src, tag) at its current clock, in rank order.
func (eng *Engine) deadlockDiag() *DeadlockError {
	d := &DeadlockError{}
	for _, p := range eng.procs {
		if p.blocked {
			d.Blocked = append(d.Blocked, BlockedOp{Rank: p.rank, Src: p.pending.src, Tag: p.pending.tag, Clock: p.clock})
		}
	}
	return d
}

// procHeap orders procs by clock (rank breaks ties for determinism).
type procHeap []*Proc

func (h procHeap) Len() int { return len(h) }
func (h procHeap) Less(i, j int) bool {
	if h[i].clock != h[j].clock {
		return h[i].clock < h[j].clock
	}
	return h[i].rank < h[j].rank
}
func (h procHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx = i
	h[j].heapIdx = j
}
func (h *procHeap) Push(x interface{}) {
	p := x.(*Proc)
	p.heapIdx = len(*h)
	*h = append(*h, p)
}
func (h *procHeap) Pop() interface{} {
	old := *h
	n := len(old)
	p := old[n-1]
	p.heapIdx = -1
	*h = old[:n-1]
	return p
}

// runHeap orders concurrently executing procs by (lb, rank), where lb
// is each body's running lower bound — its clock when it was resumed.
// Its minimum bounds from below every request the running set can
// still produce (clocks never decrease inside a body).
type runHeap []*Proc

func (h runHeap) Len() int { return len(h) }
func (h runHeap) Less(i, j int) bool {
	if h[i].lb != h[j].lb {
		return h[i].lb < h[j].lb
	}
	return h[i].rank < h[j].rank
}
func (h runHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].runIdx = i
	h[j].runIdx = j
}
func (h *runHeap) Push(x interface{}) {
	p := x.(*Proc)
	p.runIdx = len(*h)
	*h = append(*h, p)
}
func (h *runHeap) Pop() interface{} {
	old := *h
	n := len(old)
	p := old[n-1]
	p.runIdx = -1
	*h = old[:n-1]
	return p
}
