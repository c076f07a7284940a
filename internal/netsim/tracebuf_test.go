package netsim

import "testing"

func TestTraceBufferRing(t *testing.T) {
	b := NewTraceBuffer(4)
	rec := b.Recorder()
	for i := 0; i < 10; i++ {
		rec(TraceEvent{Tag: i})
	}
	evs := b.Events()
	if len(evs) != 4 {
		t.Fatalf("kept %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := 6 + i; ev.Tag != want {
			t.Errorf("event %d tag = %d, want %d (oldest-first)", i, ev.Tag, want)
		}
	}
}

func TestTraceBufferUnderCap(t *testing.T) {
	b := NewTraceBuffer(8)
	rec := b.Recorder()
	for i := 0; i < 3; i++ {
		rec(TraceEvent{Tag: i})
	}
	evs := b.Events()
	if len(evs) != 3 || evs[0].Tag != 0 || evs[2].Tag != 2 {
		t.Errorf("events = %+v", evs)
	}
}

func TestTraceBufferDefaultCap(t *testing.T) {
	if b := NewTraceBuffer(0); b.cap != DefaultTraceCap {
		t.Errorf("cap = %d, want %d", b.cap, DefaultTraceCap)
	}
}

// TestTraceBufferAsTracer exercises the buffer as the engine callback.
func TestTraceBufferAsTracer(t *testing.T) {
	b := NewTraceBuffer(2)
	cfg := Config{
		Nodes: 2, GPUsPerNode: 1,
		InterBW: 1e9, IntraBW: 2e9, LocalBW: 8e9,
		InterLatency: 1e-6, IntraLatency: 0.5e-6,
		Tracer: b.Recorder(),
	}
	Run(cfg, func(p *Proc) {
		if p.Rank() == 0 {
			for i := 0; i < 5; i++ {
				p.Send(1, i, nil, 100)
			}
		} else {
			for i := 0; i < 5; i++ {
				p.Recv(0, i)
			}
		}
	})
	// Five sends, two kept: the ring holds the last two (tags 3 and 4).
	if evs := b.Events(); len(evs) != 2 || evs[0].Tag != 3 || evs[1].Tag != 4 {
		t.Errorf("kept %+v, want the events of tags 3 and 4", evs)
	}
}
