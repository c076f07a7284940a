package netsim

import (
	"math"
	"reflect"
	"testing"
)

// tiny returns a 2-node machine with 1 GPU per node and simple numbers
// so expected times are easy to compute by hand.
func tiny() Config {
	return Config{
		Nodes: 2, GPUsPerNode: 1,
		InterBW: 1e9, IntraBW: 2e9, LocalBW: 8e9,
		InterLatency: 1e-6, IntraLatency: 0.5e-6, SendOverhead: 0,
	}
}

func TestPointToPointTiming(t *testing.T) {
	// 1 MB at 1 GB/s = 1 ms, plus 1 µs latency.
	res := Run(tiny(), func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, 7, nil, 1_000_000)
		} else {
			pkt := p.Recv(0, 7)
			if pkt.Bytes != 1_000_000 {
				t.Errorf("bytes = %d", pkt.Bytes)
			}
		}
	})
	want := 1e-3 + 1e-6
	if math.Abs(res.Time-want) > 1e-12 {
		t.Errorf("completion time %g, want %g", res.Time, want)
	}
}

func TestPayloadIntegrity(t *testing.T) {
	data := []byte{1, 2, 3, 4, 5}
	Run(tiny(), func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, 1, data, len(data))
		} else {
			pkt := p.Recv(0, 1)
			if !reflect.DeepEqual(pkt.Payload, data) {
				t.Errorf("payload = %v", pkt.Payload)
			}
		}
	})
}

func TestSendOverheadChargesSender(t *testing.T) {
	cfg := tiny()
	cfg.SendOverhead = 5e-6
	var senderClock float64
	Run(cfg, func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, 1, nil, 1000)
			senderClock = p.Now()
		} else {
			p.Recv(0, 1)
		}
	})
	if math.Abs(senderClock-5e-6) > 1e-12 {
		t.Errorf("sender clock after send = %g, want 5e-6", senderClock)
	}
}

func TestIntraNodeUsesBusAndLatency(t *testing.T) {
	cfg := tiny()
	cfg.Nodes, cfg.GPUsPerNode = 1, 2
	res := Run(cfg, func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, 1, nil, 2_000_000)
		} else {
			p.Recv(0, 1)
		}
	})
	want := 2e6/2e9 + 0.5e-6
	if math.Abs(res.Time-want) > 1e-12 {
		t.Errorf("intra time %g, want %g", res.Time, want)
	}
	if res.Stats.BytesIntra != 2_000_000 || res.Stats.BytesInter != 0 {
		t.Errorf("stats: %+v", res.Stats)
	}
}

func TestSelfSendUsesLocalBW(t *testing.T) {
	res := Run(tiny(), func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(0, 1, nil, 8_000_000)
			pkt := p.Recv(0, 1)
			p.AdvanceTo(pkt.Arrival)
		}
	})
	want := 8e6 / 8e9 // 1 ms, no latency for self copies
	if math.Abs(res.Time-want) > 1e-12 {
		t.Errorf("self copy time %g, want %g", res.Time, want)
	}
}

func TestIngressSerialization(t *testing.T) {
	// Two remote senders into one node: transfers share the ingress NIC
	// and serialize; total ≈ 2 × (size/BW).
	cfg := Config{
		Nodes: 3, GPUsPerNode: 1,
		InterBW: 1e9, IntraBW: 2e9, LocalBW: 8e9,
		InterLatency: 0, IntraLatency: 0,
	}
	res := Run(cfg, func(p *Proc) {
		switch p.Rank() {
		case 0, 1:
			p.Send(2, p.Rank(), nil, 1_000_000)
		case 2:
			a := p.Recv(0, 0)
			b := p.Recv(1, 1)
			p.AdvanceTo(math.Max(a.Arrival, b.Arrival))
		}
	})
	if math.Abs(res.Time-2e-3) > 1e-9 {
		t.Errorf("serialized ingress time %g, want 2e-3", res.Time)
	}
}

func TestDisjointPathsRunInParallel(t *testing.T) {
	// 0→1 and 1→0 use different NIC pairs (egress0/ingress1 vs
	// egress1/ingress0): both finish in one transfer time.
	res := Run(tiny(), func(p *Proc) {
		other := 1 - p.Rank()
		p.Send(other, 1, nil, 1_000_000)
		pkt := p.Recv(other, 1)
		p.AdvanceTo(pkt.Arrival)
	})
	want := 1e-3 + 1e-6
	if math.Abs(res.Time-want) > 1e-9 {
		t.Errorf("bidirectional time %g, want %g", res.Time, want)
	}
}

func TestElapseAndOrdering(t *testing.T) {
	// Rank 1 computes before receiving; arrival before compute end means
	// recv returns at compute end.
	res := Run(tiny(), func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, 1, nil, 1000) // arrives at ~1µs+1µs
		} else {
			p.Elapse(1e-3)
			p.Recv(0, 1)
			if math.Abs(p.Now()-1e-3) > 1e-12 {
				t.Errorf("recv after compute returned at %g", p.Now())
			}
		}
	})
	if math.Abs(res.Time-1e-3) > 1e-12 {
		t.Errorf("time %g", res.Time)
	}
}

func TestManyMessagesOrdered(t *testing.T) {
	// Messages with the same key arrive FIFO.
	Run(tiny(), func(p *Proc) {
		const k = 50
		if p.Rank() == 0 {
			for i := 0; i < k; i++ {
				p.Send(1, 9, []byte{byte(i)}, 100)
			}
		} else {
			last := -1
			for i := 0; i < k; i++ {
				pkt := p.Recv(0, 9)
				if int(pkt.Payload[0]) != last+1 {
					t.Fatalf("out of order: got %d after %d", pkt.Payload[0], last)
				}
				last = int(pkt.Payload[0])
			}
		}
	})
}

func TestDeterminism(t *testing.T) {
	body := func(p *Proc) {
		n := p.Size()
		for i := 0; i < n; i++ {
			dst := (p.Rank() + i) % n
			p.Send(dst, i, nil, 1000*(p.Rank()+1))
		}
		for i := 0; i < n; i++ {
			src := (p.Rank() - i + n) % n
			p.Recv(src, i)
		}
	}
	cfg := Summit(2)
	a := Run(cfg, body)
	b := Run(cfg, body)
	if a.Time != b.Time || !reflect.DeepEqual(a.Clocks, b.Clocks) || a.Stats != b.Stats {
		t.Errorf("nondeterministic results:\n%+v\n%+v", a, b)
	}
}

func TestDeadlockDetection(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected deadlock panic")
		}
	}()
	Run(tiny(), func(p *Proc) {
		p.Recv(1-p.Rank(), 0) // both wait, nobody sends
	})
}

func TestBodyPanicPropagates(t *testing.T) {
	defer func() {
		if r := recover(); r != "boom" {
			t.Errorf("recovered %v, want boom", r)
		}
	}()
	Run(tiny(), func(p *Proc) {
		if p.Rank() == 1 {
			panic("boom")
		}
	})
}

func TestProtoOverheadOccupiesPath(t *testing.T) {
	// A message with protocol overhead holds the NIC longer: two
	// back-to-back messages complete one overhead later each.
	cfg := tiny()
	var arrivals [2]float64
	Run(cfg, func(p *Proc) {
		if p.Rank() == 0 {
			p.SendMsg(1, 0, SendOpts{Bytes: 1_000_000, ProtoOverhead: 10e-6})
			p.SendMsg(1, 1, SendOpts{Bytes: 1_000_000, ProtoOverhead: 10e-6})
		} else {
			arrivals[0] = p.Recv(0, 0).Arrival
			arrivals[1] = p.Recv(0, 1).Arrival
		}
	})
	want0 := 1e-3 + 10e-6 + 1e-6
	want1 := 2*(1e-3+10e-6) + 1e-6
	if math.Abs(arrivals[0]-want0) > 1e-12 || math.Abs(arrivals[1]-want1) > 1e-12 {
		t.Errorf("arrivals %v, want %g and %g", arrivals, want0, want1)
	}
}

func TestSendMsgReturnsArrival(t *testing.T) {
	Run(tiny(), func(p *Proc) {
		if p.Rank() == 0 {
			got := p.SendMsg(1, 0, SendOpts{Bytes: 1_000_000})
			want := 1e-3 + 1e-6
			if math.Abs(got-want) > 1e-12 {
				t.Errorf("SendMsg arrival %g, want %g", got, want)
			}
		} else {
			p.Recv(0, 0)
		}
	})
}

func TestSummitConfig(t *testing.T) {
	cfg := Summit(4)
	if cfg.Ranks() != 24 {
		t.Errorf("Summit(4) ranks = %d, want 24", cfg.Ranks())
	}
	if cfg.NodeOf(0) != 0 || cfg.NodeOf(6) != 1 || cfg.NodeOf(23) != 3 {
		t.Error("NodeOf mapping wrong")
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected config validation panic")
		}
	}()
	Run(Config{}, func(p *Proc) {})
}

func TestStatsCounters(t *testing.T) {
	cfg := Summit(2) // 12 ranks
	res := Run(cfg, func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, 0, nil, 100) // intra
			p.Send(6, 1, nil, 200) // inter
			p.Send(0, 2, nil, 300) // local
		}
		switch p.Rank() {
		case 0:
			p.Recv(0, 2)
			p.CountFence()
		case 1:
			p.Recv(0, 0)
			p.CountFlush()
		case 6:
			p.Recv(0, 1)
			p.CountFence()
		}
	})
	want := Stats{Messages: 3, BytesIntra: 100, BytesInter: 200, BytesLocal: 300, Fences: 2, Flushes: 1}
	if res.Stats != want {
		t.Errorf("stats = %+v, want %+v", res.Stats, want)
	}
}
