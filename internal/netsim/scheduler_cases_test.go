package netsim

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// The hand-written workloads below hold the production scheduler
// (runSequential) to the reference one (runReference), as FuzzScheduler
// does for decoded programs. Their names come from the suite that once
// compared a parallel engine with the sequential one: "parallel" is now
// the production scheduler, "sequential" the reference.

// schedCase is everything a run of a workload shows: the Result, the
// error (checked mode), the full trace, and the bytes each rank's body
// deposited into sink.
type schedCase struct {
	res    Result
	err    error
	events []TraceEvent
	sink   [][]byte
}

func runCase(cfg Config, reference, checked bool, body func(*Proc, [][]byte)) schedCase {
	var c schedCase
	cfg.Tracer = func(ev TraceEvent) { c.events = append(c.events, ev) }
	cfg.validate()
	c.sink = make([][]byte, cfg.Ranks())
	eng := newEngine(cfg, func(p *Proc) { body(p, c.sink) }, checked)
	if reference {
		c.res, c.err = eng.runReference()
	} else {
		c.res, c.err = eng.runSequential()
	}
	return c
}

// requireIdentical asserts bit-identity of every observable between two
// runs of the same workload.
func requireIdentical(t *testing.T, a, b schedCase) {
	t.Helper()
	if !reflect.DeepEqual(a.res, b.res) {
		t.Errorf("Result differs:\n%+v\n%+v", a.res, b.res)
	}
	for i := range min(len(a.events), len(b.events)) {
		if a.events[i] != b.events[i] {
			t.Errorf("first divergence at event %d:\n%+v\n%+v", i, a.events[i], b.events[i])
			break
		}
	}
	if len(a.events) != len(b.events) {
		t.Errorf("%d events vs %d", len(a.events), len(b.events))
	}
	for r := range a.sink {
		if !bytes.Equal(a.sink[r], b.sink[r]) {
			t.Errorf("rank %d output bytes differ", r)
		}
	}
	switch {
	case (a.err == nil) != (b.err == nil):
		t.Errorf("error presence differs: %v vs %v", a.err, b.err)
	case a.err != nil && a.err.Error() != b.err.Error():
		t.Errorf("error strings differ:\n%v\n%v", a.err, b.err)
	}
}

// a2aBody is a tagged all-to-all with payloads and per-rank compute,
// depositing the received bytes into the sink for comparison.
func a2aBody(msgBytes int, compute float64) func(*Proc, [][]byte) {
	return func(p *Proc, sink [][]byte) {
		n := p.Size()
		for i := 0; i < n; i++ {
			dst := (p.Rank() + i) % n
			pay := bytes.Repeat([]byte{byte(p.Rank()), byte(dst)}, 4)
			p.Send(dst, i, pay, msgBytes)
		}
		if compute > 0 {
			p.Elapse(compute)
		}
		for i := 0; i < n; i++ {
			src := (p.Rank() - i + n) % n
			pkt := p.Recv(src, i)
			sink[p.Rank()] = append(sink[p.Rank()], pkt.Payload...)
		}
	}
}

// oscBody exercises unmatched puts, fences, flushes, and metadata.
func oscBody(p *Proc, sink [][]byte) {
	n := p.Size()
	for i := 0; i < n; i++ {
		dst := (p.Rank() + i) % n
		p.SendMsg(dst, 500, SendOpts{Payload: []byte{byte(p.Rank())}, Bytes: 2048, Meta: i, Unmatched: true})
		if i%2 == 1 {
			p.CountFlush()
		}
	}
	p.CountFence()
	recs, _ := p.DrainPuts(500, n)
	for _, r := range recs {
		sink[p.Rank()] = append(sink[p.Rank()], r.Payload...)
		sink[p.Rank()] = append(sink[p.Rank()], byte(r.Offset), byte(r.Src))
	}
}

// deadlineBody mixes watchdog receives that time out (nothing is ever
// sent on tag 99) with ones that succeed.
func deadlineBody(p *Proc, sink [][]byte) {
	n := p.Size()
	peer := (p.Rank() + 1) % n
	p.Send(peer, 7, []byte{byte(p.Rank())}, 1<<14)
	if pkt, ok := p.RecvDeadline((p.Rank()-1+n)%n, 7, 1.0); ok {
		sink[p.Rank()] = append(sink[p.Rank()], pkt.Payload...)
	}
	if _, ok := p.RecvDeadline(peer, 99, 10e-6+float64(p.Rank())*1e-6); ok {
		sink[p.Rank()] = append(sink[p.Rank()], 0xFF)
	} else {
		sink[p.Rank()] = append(sink[p.Rank()], 0xEE)
	}
}

// jitterBody gives every rank irregular compute and random
// destinations, so requests reach the scheduler far from clock order.
func jitterBody(seed int64) func(*Proc, [][]byte) {
	return func(p *Proc, sink [][]byte) {
		rng := rand.New(rand.NewSource(seed + int64(p.Rank())))
		n := p.Size()
		for round := 0; round < 4; round++ {
			p.Elapse(rng.Float64() * 50e-6)
			dst := rng.Intn(n)
			p.Send(dst, 1000+round*n+p.Rank(), []byte{byte(round)}, 1+rng.Intn(1<<16))
		}
		// Drain: every rank receives whatever was addressed to it via a
		// tagged sweep with deadlines (sends are random).
		for round := 0; round < 4; round++ {
			for src := 0; src < n; src++ {
				if pkt, ok := p.RecvDeadline(src, 1000+round*n+src, 0.5); ok {
					sink[p.Rank()] = append(sink[p.Rank()], pkt.Payload...)
				}
			}
		}
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		body func(*Proc, [][]byte)
	}{
		{"a2a-small", Summit(2), a2aBody(512, 0)},
		{"a2a-large", Summit(2), a2aBody(1<<20, 0)},
		{"a2a-compute", Summit(3), a2aBody(1<<16, 30e-6)},
		{"osc", Summit(2), oscBody},
		{"deadline", Summit(2), deadlineBody},
		{"jitter-1", Summit(2), jitterBody(1)},
		{"jitter-2", Summit(4), jitterBody(2)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prod := runCase(tc.cfg, false, false, tc.body)
			ref := runCase(tc.cfg, true, false, tc.body)
			requireIdentical(t, prod, ref)
			if len(prod.events) == 0 {
				t.Fatal("no trace events recorded")
			}
		})
	}
}

// TestParallelFences checks fence/flush totals for an uneven
// distribution across ranks, under both schedulers.
func TestParallelFences(t *testing.T) {
	body := func(p *Proc, _ [][]byte) {
		for i := 0; i <= p.Rank(); i++ {
			p.CountFence()
		}
		for i := 0; i < 2*p.Rank(); i++ {
			p.CountFlush()
		}
	}
	prod := runCase(Summit(2), false, false, body)
	ref := runCase(Summit(2), true, false, body)
	n := Summit(2).Ranks()
	if prod.res.Stats.Fences != n*(n+1)/2 || prod.res.Stats.Flushes != n*(n-1) {
		t.Errorf("fence/flush totals wrong: %+v", prod.res.Stats)
	}
	requireIdentical(t, prod, ref)
}

// TestParallelPanicPropagates: a panicking body must abort a checked
// run with the same RankFailure diagnostics under both schedulers.
func TestParallelPanicPropagates(t *testing.T) {
	body := func(p *Proc, _ [][]byte) {
		p.Elapse(float64(p.Rank()) * 1e-6)
		if p.Rank() == 3 {
			panic("rank 3 exploded")
		}
		// Everyone else blocks on a message that never comes, with a
		// watchdog so the run terminates deterministically.
		p.RecvDeadline(3, 1, 1e-3)
	}
	prod := runCase(Summit(1), false, true, body)
	ref := runCase(Summit(1), true, true, body)
	if prod.err == nil || ref.err == nil {
		t.Fatalf("expected failures, got %v and %v", prod.err, ref.err)
	}
	requireIdentical(t, prod, ref)
}

// TestParallelDeterministicAcrossRuns: the production scheduler must be
// deterministic against itself. Rank bodies are goroutines, so the Go
// runtime's scheduling varies run to run; the outputs may not.
func TestParallelDeterministicAcrossRuns(t *testing.T) {
	for trial := 0; trial < 3; trial++ {
		a := runCase(Summit(3), false, false, jitterBody(7))
		b := runCase(Summit(3), false, false, jitterBody(7))
		requireIdentical(t, a, b)
	}
}
