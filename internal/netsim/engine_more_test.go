package netsim

import (
	"math"
	"testing"
	"testing/quick"
)

// TestCutThroughDecouplesQueues: a backed-up destination must not stall
// the sender's egress for unrelated traffic (the convoy effect the
// resource model explicitly avoids).
func TestCutThroughDecouplesQueues(t *testing.T) {
	cfg := Config{
		Nodes: 3, GPUsPerNode: 1,
		InterBW: 1e9, IntraBW: 2e9, LocalBW: 8e9,
	}
	var arrivalB float64
	Run(cfg, func(p *Proc) {
		switch p.Rank() {
		case 0:
			// First a large transfer to rank 1, then a small one to rank 2.
			p.Send(1, 0, nil, 10_000_000) // 10 ms on the wire
			p.Send(2, 0, nil, 1_000_000)  // 1 ms
		case 1:
			// Rank 1's ingress is additionally hammered by rank 2 before
			// rank 0's transfer gets there — irrelevant for rank 2's wait.
			p.Recv(0, 0)
		case 2:
			pkt := p.Recv(0, 0)
			arrivalB = pkt.Arrival
		}
	})
	// Egress of node 0 serializes: 10 ms then 1 ms. Rank 2's message
	// completes at ~11 ms — not delayed behind ingress-1 congestion.
	if arrivalB > 11.1e-3 {
		t.Errorf("small transfer arrived at %g, cut-through not working", arrivalB)
	}
}

func TestMatchingCostCharged(t *testing.T) {
	cfg := tiny()
	cfg.MatchCost = 1e-6
	cfg.MatchQueueCap = 100
	var withCost float64
	Run(cfg, func(p *Proc) {
		if p.Rank() == 0 {
			for i := 0; i < 10; i++ {
				p.Send(1, i, nil, 10)
			}
		} else {
			// Let all ten messages queue up, then drain: match i sees
			// 10-i queued packets.
			p.Elapse(1)
			for i := 0; i < 10; i++ {
				p.Recv(0, i)
			}
			withCost = p.Now()
		}
	})
	// Total matching cost: (10+9+...+1)·1µs = 55 µs on top of 1 s.
	want := 1.0 + 55e-6
	if math.Abs(withCost-want) > 1e-9 {
		t.Errorf("receiver clock %g, want %g", withCost, want)
	}
}

func TestUnmatchedPacketsSkipMatchingCost(t *testing.T) {
	cfg := tiny()
	cfg.MatchCost = 1e-3
	cfg.MatchQueueCap = 100
	var clock float64
	Run(cfg, func(p *Proc) {
		if p.Rank() == 0 {
			for i := 0; i < 5; i++ {
				p.SendMsg(1, i, SendOpts{Bytes: 10, Unmatched: true})
			}
		} else {
			p.Elapse(1)
			for i := 0; i < 5; i++ {
				p.Recv(0, i)
			}
			clock = p.Now()
		}
	})
	if clock > 1.0+1e-9 {
		t.Errorf("unmatched packets paid matching cost: clock %g", clock)
	}
}

func TestMatchQueueCapBoundsCost(t *testing.T) {
	cfg := tiny()
	cfg.MatchCost = 1e-6
	cfg.MatchQueueCap = 3
	var clock float64
	Run(cfg, func(p *Proc) {
		if p.Rank() == 0 {
			for i := 0; i < 20; i++ {
				p.Send(1, i, nil, 10)
			}
		} else {
			p.Elapse(1)
			for i := 0; i < 20; i++ {
				p.Recv(0, i)
			}
			clock = p.Now()
		}
	})
	// Cost per match capped at 3 µs·1e-6... at most 20·3·1e-6.
	maxCost := 20 * 3 * 1e-6
	if clock > 1.0+maxCost+1e-12 {
		t.Errorf("matching cost above cap: clock %g", clock)
	}
}

func TestSendFullMetaDelivered(t *testing.T) {
	Run(tiny(), func(p *Proc) {
		if p.Rank() == 0 {
			p.SendMsg(1, 0, SendOpts{Payload: []byte{1}, Bytes: 1, Meta: 4242})
		} else {
			pkt := p.Recv(0, 0)
			if pkt.Meta != 4242 {
				t.Errorf("meta = %d", pkt.Meta)
			}
		}
	})
}

func TestAdvanceToMonotonic(t *testing.T) {
	Run(tiny(), func(p *Proc) {
		p.Elapse(5)
		p.AdvanceTo(3) // must not go backwards
		if p.Now() != 5 {
			t.Errorf("AdvanceTo moved clock backwards to %g", p.Now())
		}
		p.AdvanceTo(7)
		if p.Now() != 7 {
			t.Errorf("AdvanceTo did not advance: %g", p.Now())
		}
	})
}

func TestNegativeElapsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Run(tiny(), func(p *Proc) {
		p.Elapse(-1)
	})
}

func TestSendToInvalidRankPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Run(tiny(), func(p *Proc) {
		p.Send(99, 0, nil, 1)
	})
}

// TestEgressFIFOProperty: messages from one sender to one receiver over
// the same resources arrive in nondecreasing order of completion.
func TestEgressFIFOProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		if len(sizes) == 0 || len(sizes) > 30 {
			return true
		}
		ok := true
		Run(tiny(), func(p *Proc) {
			if p.Rank() == 0 {
				for i, s := range sizes {
					p.Send(1, i, nil, int(s)+1)
				}
			} else {
				last := -1.0
				for i := range sizes {
					pkt := p.Recv(0, i)
					if pkt.Arrival < last {
						ok = false
					}
					last = pkt.Arrival
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestConservationOfBytes: stats account exactly for all sends.
func TestConservationOfBytes(t *testing.T) {
	f := func(sz []uint16) bool {
		if len(sz) == 0 || len(sz) > 20 {
			return true
		}
		var total int64
		cfg := Summit(2)
		res := Run(cfg, func(p *Proc) {
			if p.Rank() == 0 {
				for i, s := range sz {
					dst := (i*5 + 1) % p.Size()
					p.Send(dst, i, nil, int(s))
				}
			}
			for i, s := range sz {
				if (i*5+1)%p.Size() == p.Rank() {
					p.Recv(0, i)
					_ = s
				}
			}
		})
		total = 0
		for _, s := range sz {
			total += int64(s)
		}
		sum := res.Stats.BytesInter + res.Stats.BytesIntra + res.Stats.BytesLocal
		return sum == total && res.Stats.Messages == len(sz)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestSummitOverheadFields(t *testing.T) {
	cfg := Summit(1)
	if cfg.ProtoOverheadInter <= 0 || cfg.ProtoOverheadIntra <= 0 ||
		cfg.RMAOverhead <= 0 || cfg.MatchCost <= 0 || cfg.MatchQueueCap <= 0 {
		t.Errorf("Summit overheads not set: %+v", cfg)
	}
	if cfg.RMAOverhead >= cfg.ProtoOverheadInter {
		t.Error("RDMA per-op cost should be below two-sided protocol cost")
	}
}

func TestTracerReceivesEvents(t *testing.T) {
	cfg := Summit(2)
	var events []TraceEvent
	cfg.Tracer = func(e TraceEvent) { events = append(events, e) }
	Run(cfg, func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, 9, nil, 100) // intra
			p.Send(7, 9, nil, 200) // inter
			p.Send(0, 9, nil, 300) // local
		}
		switch p.Rank() {
		case 0:
			p.Recv(0, 9)
		case 1, 7:
			p.Recv(0, 9)
		}
	})
	if len(events) != 3 {
		t.Fatalf("got %d events", len(events))
	}
	kinds := map[string]int{}
	for _, e := range events {
		kinds[e.Kind]++
		if e.Arrival < e.End || e.End < e.Injected {
			t.Errorf("event times out of order: %+v", e)
		}
		if e.Src != 0 || e.Tag != 9 {
			t.Errorf("event fields wrong: %+v", e)
		}
	}
	if kinds["intra"] != 1 || kinds["inter"] != 1 || kinds["local"] != 1 {
		t.Errorf("kinds = %v", kinds)
	}
}
