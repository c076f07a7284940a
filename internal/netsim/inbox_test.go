package netsim

import (
	"bytes"
	"reflect"
	"testing"
)

// TestMatchSkipsOtherTags: one source's packets of different tags share
// one inbox list; a receive takes the oldest packet with its tag and
// leaves the others queued in order. The last receive's packet is
// queued before it is asked for but arrives after its deadline, so the
// watchdog fires at the deadline and the packet stays for a later Recv.
func TestMatchSkipsOtherTags(t *testing.T) {
	const tagA, tagB, tagC = 1, 2, 3
	Run(tiny(), func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, tagA, []byte("A1"), 2)
			p.Send(1, tagB, []byte("B1"), 2)
			p.Send(1, tagA, []byte("A2"), 2)
			p.Send(1, tagC, []byte("C1"), 1_000_000) // arrives after 1 ms
			return
		}
		p.Elapse(1e-6) // every send above is processed (queued) first
		for _, want := range []struct {
			tag     int
			payload string
		}{{tagB, "B1"}, {tagA, "A1"}, {tagA, "A2"}} {
			if got := p.Recv(0, want.tag); string(got.Payload) != want.payload || got.Tag != want.tag {
				t.Errorf("Recv(0, %d) = tag %d payload %q, want %q", want.tag, got.Tag, got.Payload, want.payload)
			}
		}
		const deadline = 0.5e-3
		if got, ok := p.RecvDeadline(0, tagC, deadline); ok {
			t.Errorf("RecvDeadline took %q arriving at %g, after its deadline %g", got.Payload, got.Arrival, deadline)
		}
		if p.Now() != deadline {
			t.Errorf("clock after the watchdog = %g, want %g", p.Now(), deadline)
		}
		if got := p.Recv(0, tagC); string(got.Payload) != "C1" || got.Arrival <= deadline || p.Now() != got.Arrival {
			t.Errorf("Recv(0, %d) after the timeout = %q arriving at %g, clock %g", tagC, got.Payload, got.Arrival, p.Now())
		}
	})
}

// TestInboxSteadyStateAllocsNothing: once the node pool is warm, a
// deliver and the match that consumes it allocate nothing.
func TestInboxSteadyStateAllocsNothing(t *testing.T) {
	eng := newEngine(tiny(), nil, false)
	snd, rcv := eng.procs[0], eng.procs[1]
	payload := []byte{1, 2, 3}
	round := func() {
		snd.req = request{kind: reqDeliver, dst: 1, tag: 7, payload: payload, bytes: len(payload)}
		eng.deliver(snd)
		rcv.req = request{kind: reqMatch, src: 0, tag: 7}
		if eng.process(rcv) || !bytes.Equal(rcv.resp.Payload, payload) {
			t.Fatalf("match after deliver: blocked %v, payload %v", rcv.blocked, rcv.resp.Payload)
		}
	}
	round()
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Errorf("deliver + match allocate %v times per round, want 0", n)
	}
}

// TestMatchedNodesHoldNoPayload: a matched node, pooled or carved from
// a slab, keeps no reference to its packet's payload.
func TestMatchedNodesHoldNoPayload(t *testing.T) {
	eng := newEngine(tiny(), nil, false)
	rcv := eng.procs[1]
	const n = nodePool + slabNodes/2
	for i := 0; i < n; i++ {
		eng.push(rcv, Packet{Src: 0, Tag: 7, Payload: []byte{byte(i)}, Meta: i})
	}
	var nodes []*pktNode
	for node := rcv.inbox[0].next; len(nodes) < n; node = node.next {
		nodes = append(nodes, node)
	}
	for i := 0; i < n; i++ {
		if pkt := eng.take(rcv, 0, rcv.find(0, 7)); pkt.Meta != i || pkt.Payload[0] != byte(i) {
			t.Fatalf("match %d took packet %d payload %v", i, pkt.Meta, pkt.Payload)
		}
	}
	if rcv.inbox[0] != nil {
		t.Fatal("inbox not empty after every packet was matched")
	}
	for i, node := range nodes {
		if !reflect.DeepEqual(node.pkt, Packet{}) {
			t.Fatalf("matched node %d (pooled %v) still holds %+v", i, node.pooled, node.pkt)
		}
	}
	if got := nodes[n-1].pooled; got {
		t.Errorf("node %d of %d is pooled; the pool holds only %d", n-1, n, nodePool)
	}
}

// refMailbox is the matching queue the per-source inbox replaced: one
// FIFO per (src, tag) in a map, appended on delivery and popped from
// the front on a match. FuzzMailbox holds the inbox to it.
type refMailbox map[pktKey][]Packet

func (m refMailbox) deliver(pkt Packet) {
	key := pktKey{pkt.Src, pkt.Tag}
	m[key] = append(m[key], pkt)
}

func (m refMailbox) match(key pktKey) (Packet, bool) {
	q := m[key]
	if len(q) == 0 {
		return Packet{}, false
	}
	if len(q) == 1 {
		delete(m, key)
	} else {
		m[key] = q[1:]
	}
	return q[0], true
}

// FuzzMailbox drives the inbox and refMailbox with one interleaving of
// deliveries, duplicate deliveries and matches over three sources and
// four tags (two bits each of every op byte), then drains both: every
// match must return the same packet, and both must run dry together.
func FuzzMailbox(f *testing.F) {
	f.Add([]byte{0x00, 0x10, 0x00, 0x12, 0x02, 0x02, 0x06})
	f.Add([]byte{0x01, 0x05, 0x03, 0x07, 0x33, 0x03})
	long := bytes.Repeat([]byte{0x00, 0x15, 0x28}, nodePool/2)
	f.Add(append(long, bytes.Repeat([]byte{0x02, 0x16}, nodePool/2)...))
	f.Fuzz(func(t *testing.T, ops []byte) {
		cfg := tiny()
		cfg.Nodes = 4
		eng := newEngine(cfg, nil, false)
		p := eng.procs[3]
		ref := refMailbox{}
		check := func(key pktKey) bool {
			want, ok := ref.match(key)
			prev := p.find(key.src, key.tag)
			if ok != (prev != nil) {
				t.Fatalf("(src %d, tag %d): reference has a packet %v, inbox %v", key.src, key.tag, ok, prev != nil)
			}
			if ok {
				if got := eng.take(p, key.src, prev); !reflect.DeepEqual(got, want) {
					t.Fatalf("(src %d, tag %d): inbox took %+v, reference %+v", key.src, key.tag, got, want)
				}
			}
			return ok
		}
		for i, op := range ops {
			key := pktKey{src: int(op>>2&3) % 3, tag: int(op >> 4 & 3)}
			switch op & 3 {
			case 0, 1: // deliver, twice for a duplicate
				pkt := Packet{Src: key.src, Tag: key.tag, Payload: []byte{byte(i), op}, Meta: i, Arrival: float64(i)}
				for c := 0; c <= int(op&1); c++ {
					eng.push(p, pkt)
					ref.deliver(pkt)
				}
			default:
				check(key)
			}
		}
		for src := 0; src < 3; src++ {
			for tag := 0; tag < 4; tag++ {
				for check(pktKey{src, tag}) {
				}
			}
			if p.inbox[src] != nil {
				t.Fatalf("source %d: inbox not empty after the reference ran dry", src)
			}
		}
	})
}
