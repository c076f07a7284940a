package netsim

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
)

// runReference is the scheduler the baton replaced: Run's goroutine
// takes every request and resumes one body per request, and eng.baton
// is never set, so a yielding body always hands its request back. It
// picks the next proc and fires watchdog deadlines with its own
// (clock, rank) and (deadline, rank) comparisons, so a fault in earlier
// or fireDeadline cannot hide in both schedulers at once. FuzzScheduler
// holds runSequential to it.
func (eng *Engine) runReference() (Result, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, p := range eng.procs {
		eng.resume(p)
	}
	var deadlock *DeadlockError
	for eng.alive > 0 {
		if len(eng.ready) == 0 && !eng.refFireDeadline() {
			deadlock = eng.deadlockDiag()
			break
		}
		// A linear scan for the minimum: pushes by deliver and
		// fireDeadline only append to the ready set as far as it cares.
		r, m := eng.ready, 0
		for i, p := range r {
			if p.clock < r[m].clock || p.clock == r[m].clock && p.rank < r[m].rank {
				m = i
			}
		}
		p := r[m]
		r[m] = r[len(r)-1]
		eng.ready = r[:len(r)-1]
		if eng.discardCrashed(p) {
			eng.alive--
		} else if !eng.process(p) {
			eng.resume(p)
		}
	}
	return eng.finalize(deadlock)
}

// refFireDeadline times out the blocked receiver with the earliest
// deadline, the lowest rank on a tie (procs are scanned in rank order).
func (eng *Engine) refFireDeadline() bool {
	var v *Proc
	for _, p := range eng.procs {
		if p.blocked && p.deadline != 0 && (v == nil || p.deadline < v.deadline) {
			v = p
		}
	}
	if v == nil {
		return false
	}
	v.blocked, v.timedOut, v.req.kind = false, true, reqResolved
	v.clock = max(v.clock, v.deadline)
	v.deadline = 0
	eng.ready = append(eng.ready, v)
	return true
}

// The operations of a FuzzScheduler program. Every rank runs the same
// list, so a receive op takes the oldest send op not yet received, which
// every peer executed before it: programs cannot deadlock. A receive
// with nothing left to take waits on a tag nobody sends, under a
// deadline. A drain has no deadline, so it skips a put whose sender
// panicked first.
const (
	opSend    = iota // one message to rank+arg; x: size, put, latency, long payload
	opA2A            // one message to every rank, tags tag+j; x as opSend
	opRecv           // receive (drain, if a fault-free put) the oldest unreceived send op; x&4: deadline, x&8: absolute
	opElapse         // arg µs times 1 + rank*x mod 7
	opCount          // CountFence (x&1 == 0) or CountFlush, 1 + rank*arg mod 4 times
	opBarrier        // a zero-byte message to every other rank, then receive them all
	opPanic          // rank arg%n panics (timed programs only)
	opAdvance        // AdvanceTo arg*10 µs: clock ties across ranks
)

// schedProgram is a decoded FuzzScheduler input: data[0] picks the
// machine (1–4 nodes of 1, 2, 3 or 6 GPUs, 2–12 ranks), data[1] the
// mode (bit 0: every receive has a deadline; the rest: a RandomPlan
// seed, its crash ten times earlier, which implies deadlines), then
// (op, arg) byte pairs, op's low three bits the kind and the rest its
// flags x.
type schedProgram struct {
	cfg   Config
	timed bool
	ops   []byte
}

func decodeProgram(data []byte) schedProgram {
	var hdr [2]byte
	ops := data[copy(hdr[:], data):]
	gpn := []int{1, 2, 3, 6}[hdr[0]>>2&3]
	cfg := Summit(max(min(1+int(hdr[0]&3), 12/gpn), (1+gpn)/gpn))
	cfg.GPUsPerNode = gpn
	seed := int64(hdr[1] >> 1)
	prog := schedProgram{cfg: cfg, timed: hdr[1]&1 == 1 || seed > 0, ops: ops[:min(len(ops), 128)&^1]}
	if seed > 0 {
		plan := *RandomPlan(seed)
		plan.Retry = RetryPolicy{MaxRetries: 4, RTO: 5e-6, Backoff: 2}
		plan.CrashRank, plan.CrashAt = plan.CrashRank%cfg.Ranks(), plan.CrashAt/10
		prog.cfg.Faults = &plan
	}
	return prog
}

// run is one rank's body. It appends what the rank receives to out.
func (prog schedProgram) run(p *Proc, out *[]byte) {
	r, n := p.Rank(), p.Size()
	// queue holds the op indices of unreceived send ops; recv's dl 0 is
	// a plain Recv.
	var queue []int
	recv := func(src, tag int, dl float64) {
		pkt, ok := p.RecvDeadline(src, tag, dl)
		if !ok {
			*out = append(*out, 0xEE)
			return
		}
		*out = append(append(*out, pkt.Payload...), byte(pkt.Meta), byte(pkt.Src), byte(pkt.Tag))
	}
	for i := 0; i < len(prog.ops); i += 2 {
		kind, x, arg := prog.ops[i]&7, prog.ops[i]>>3, int(prog.ops[i+1])
		tag := 16 * (i + 1)
		switch kind {
		case opSend, opA2A:
			opts := SendOpts{Bytes: []int{512, 1 << 14, 1 << 16, 1 << 20}[x&3] + r*arg, Meta: i + r, Unmatched: x&4 != 0}
			opts.Payload = bytes.Repeat([]byte{byte(r), byte(i)}, 1+int(x>>4)*48)
			if x&8 != 0 {
				opts.ExtraLatency, opts.ProtoOverhead = 2e-6, 1e-6
			}
			if kind == opSend {
				p.SendMsg((r+arg)%n, tag, opts)
			}
			for j := 0; j < n && kind == opA2A; j++ {
				p.SendMsg((r+j)%n, tag+j, opts)
			}
			queue = append(queue, i)
		case opRecv:
			dl := 0.0
			if prog.timed || x&4 != 0 || len(queue) == 0 {
				dl = p.Now() + float64(1+arg)*2e-6
				if x&8 != 0 {
					dl = float64(1+arg) * 4e-6
				}
			}
			if len(queue) == 0 {
				recv((r+1)%n, tag, dl)
				break
			}
			s := queue[0]
			queue = queue[1:]
			// A fault-free put is drained, not received; one whose
			// sender panicked before sending it is never waited for.
			take := func(src, tag int) {
				switch {
				case prog.ops[s]&(4<<3) == 0 || prog.cfg.Faults != nil:
					recv(src, tag, dl)
				case prog.panicked(src, s, n):
					*out = append(*out, 0xEE)
				default:
					recs, _ := p.DrainPuts(tag, 1)
					*out = append(append(*out, recs[0].Payload...), byte(recs[0].Offset), byte(recs[0].Src), byte(tag))
				}
			}
			if sk, sarg := prog.ops[s]&7, int(prog.ops[s+1]); sk == opSend {
				take((r-sarg%n+n)%n, 16*(s+1))
			} else {
				for j := 0; j < n; j++ {
					take((r-j+n)%n, 16*(s+1)+j)
				}
			}
		case opElapse:
			p.Elapse(float64(arg) * 1e-6 * float64(1+r*int(x)%7))
		case opCount:
			for j := 0; j <= r*arg%4; j++ {
				if x&1 == 0 {
					p.CountFence()
				} else {
					p.CountFlush()
				}
			}
		case opBarrier:
			for j := 1; j < n; j++ {
				p.Send((r+j)%n, tag, nil, 0)
			}
			for j := 1; j < n; j++ {
				dl := 0.0
				if prog.timed {
					dl = p.Now() + float64(1+arg)*2e-6
				}
				recv((r-j+n)%n, tag, dl)
			}
		case opPanic:
			if prog.timed && r == arg%n {
				panic(fmt.Sprintf("op %d", i))
			}
		case opAdvance:
			p.AdvanceTo(float64(arg) * 10e-6)
		}
	}
}

// panicked reports whether rank src panics at an op before op s.
func (prog schedProgram) panicked(src, s, n int) bool {
	for k := 0; k < s; k += 2 {
		if prog.timed && prog.ops[k]&7 == opPanic && int(prog.ops[k+1])%n == src {
			return true
		}
	}
	return false
}

// schedRun is everything a run shows: the Result, the error text, the
// trace and fault events in the order the engine emitted them, and the
// bytes each rank received.
type schedRun struct {
	res  Result
	err  string
	log  []any
	sink [][]byte
}

func runProgram(t *testing.T, data []byte, reference bool) schedRun {
	prog := decodeProgram(data)
	var out schedRun
	prog.cfg.Tracer = func(ev TraceEvent) { out.log = append(out.log, ev) }
	prog.cfg.FaultObserver = func(ev FaultEvent) { out.log = append(out.log, ev) }
	prog.cfg.validate()
	out.sink = make([][]byte, prog.cfg.Ranks())
	eng := newEngine(prog.cfg, func(p *Proc) { prog.run(p, &out.sink[p.rank]) }, true)
	defer eng.release()
	run := eng.runSequential
	if reference {
		run = eng.runReference
	}
	res, err := run()
	var re *RunError
	if errors.As(err, &re) && re.Deadlock != nil {
		t.Fatalf("program deadlocked: %v", err)
	}
	out.res = res
	if err != nil {
		out.err = err.Error()
	}
	return out
}

// FuzzScheduler runs one decoded rank program on runSequential and on
// runReference, and requires the same Result, error text, trace and
// fault events, and received bytes. The seeds are tagged all-to-alls of
// three sizes, one-sided puts with flushes and a fence, deadlines that
// fire on a tie, irregular compute, each RandomPlan scenario class
// (crashes included) twice, a panicking rank, and a put drain resolved
// at a clock tie.
func FuzzScheduler(f *testing.F) {
	op := func(kind, x byte) byte { return kind | x<<3 }
	a2a := func(size byte, compute byte) []byte {
		return []byte{0x0D, 0, op(opA2A, size), 0, op(opElapse, 0), compute, op(opRecv, 0), 0}
	}
	jitter := func(machine, elapse, send, recv byte) []byte {
		round := []byte{op(opElapse, elapse), 17, op(opSend, send), 5, op(opRecv, recv), 25}
		return append([]byte{machine, 0}, bytes.Repeat(round, 4)...)
	}
	seeds := [][]byte{
		a2a(0, 0), a2a(3, 0), a2a(2, 30),
		{0x0D, 0, op(opA2A, 4), 0, op(opCount, 1), 1, op(opCount, 0), 0, op(opRecv, 0), 0},
		{0x0D, 0, op(opSend, 1), 1, op(opRecv, 4), 255, op(opRecv, 8), 2, op(opSend, 0), 1, op(opRecv, 0), 0},
		jitter(0x0D, 3, 1, 4), jitter(0x0B, 5, 18, 0),
		{0x0C, 1, op(opElapse, 1), 1, op(opPanic, 0), 3, op(opSend, 0), 1, op(opRecv, 0), 200},
	}
	for seed := byte(1); seed <= 14; seed++ {
		seeds = append(seeds, []byte{0x0D, 2 * seed, op(opAdvance, 0), 1, op(opA2A, 21), 0,
			op(opElapse, 6), 60, op(opRecv, 0), 255, op(opBarrier, 0), 100})
	}
	// Every rank puts to rank-1 after compute that repeats every 7
	// ranks: rank r's drain waits for rank r+1's put, and ranks r+1 and
	// r+8 issue theirs at one clock, so the drain is resolved at a tie.
	seeds = append(seeds, []byte{0x0D, 0, op(opElapse, 1), 20, op(opSend, 4), 11, op(opRecv, 0), 0})
	for _, seed := range seeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		seq, ref := runProgram(t, data, false), runProgram(t, data, true)
		if !reflect.DeepEqual(seq.res, ref.res) {
			t.Errorf("Result differs:\nbaton     %+v\nreference %+v", seq.res, ref.res)
		}
		if seq.err != ref.err {
			t.Errorf("error differs:\nbaton     %q\nreference %q", seq.err, ref.err)
		}
		for i := range min(len(seq.log), len(ref.log)) {
			if seq.log[i] != ref.log[i] {
				t.Fatalf("event %d differs:\nbaton     %+v\nreference %+v", i, seq.log[i], ref.log[i])
			}
		}
		if len(seq.log) != len(ref.log) {
			t.Errorf("%d events, reference %d", len(seq.log), len(ref.log))
		}
		for r := range seq.sink {
			if !bytes.Equal(seq.sink[r], ref.sink[r]) {
				t.Errorf("rank %d received different bytes", r)
			}
		}
	})
}
