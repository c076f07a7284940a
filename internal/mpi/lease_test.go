package mpi

import (
	"bytes"
	"testing"

	"repro/internal/netsim"
)

// sameBuf reports whether a and b share their first byte.
func sameBuf(a, b []byte) bool { return len(a) > 0 && len(b) > 0 && &a[0] == &b[0] }

// TestLeaseNoReuseBeforeRelease: a leased payload reaches its receiver
// zero-copy, so its owner gets the buffer back only after the receiver's
// ReleaseRecv — before that, LeasedBuf hands out a fresh buffer and no
// lease, and the receiver's copy stays intact.
func TestLeaseNoReuseBeforeRelease(t *testing.T) {
	want := []byte{1, 2, 3, 4}
	Run(cfgN(2), func(c *Comm) {
		send := make([][]byte, 2)
		lease := make([]int, 2)
		nonzero := make([]bool, 2)
		if c.Rank() == 0 {
			own := append([]byte(nil), want...)
			id := c.NewLeases(1)
			buf, l := c.LeasedBuf(id, own)
			if !sameBuf(buf, own) || l != id {
				t.Errorf("unsent lease: LeasedBuf gave a fresh buffer or lease %d, want own and %d", l, id)
			}
			send[1], lease[1] = buf, l
			c.AlltoallvLeased(send, lease, nonzero, nil)
			buf, l = c.LeasedBuf(id, own)
			if sameBuf(buf, own) || l != 0 || len(buf) != len(own) {
				t.Errorf("lease in flight: LeasedBuf gave own buffer or lease %d, want a fresh %d-byte buffer and 0", l, len(own))
			}
			buf[0] = 99 // what a sender packs next must not reach the receiver
			c.Barrier()
			c.Barrier()
			if buf, l = c.LeasedBuf(id, own); !sameBuf(buf, own) || l != id {
				t.Errorf("released lease: LeasedBuf gave a fresh buffer or lease %d, want own and %d", l, id)
			}
			return
		}
		nonzero[0] = true
		got := c.AlltoallvLeased(send, lease, nonzero, nil)[0]
		c.Barrier()
		if !bytes.Equal(got, want) {
			t.Errorf("receiver holds %v, want %v", got, want)
		}
		c.ReleaseRecv()
		c.Barrier()
	})
}

// TestLeaseFallbackAfterDrop: a leased payload lost on the wire is never
// released — its receiver holds nothing to release — so every later
// LeasedBuf for that lease falls back to a fresh buffer.
func TestLeaseFallbackAfterDrop(t *testing.T) {
	cfg := cfgN(2)
	cfg.Faults = &netsim.FaultPlan{Seed: 1, DropProb: 1,
		Retry: netsim.RetryPolicy{MaxRetries: 1, RTO: 1e-6, Backoff: 2}}
	res, err := RunChecked(cfg, func(c *Comm) {
		send := make([][]byte, 2)
		lease := make([]int, 2)
		nonzero := make([]bool, 2)
		if c.Rank() == 1 {
			c.AlltoallvLeased(send, lease, nonzero, nil)
			c.ReleaseRecv()
			return
		}
		own := []byte{5, 6, 7}
		id := c.NewLeases(1)
		send[1], lease[1] = c.LeasedBuf(id, own)
		c.AlltoallvLeased(send, lease, nonzero, nil)
		for call := 0; call < 3; call++ {
			c.Elapse(1)
			if buf, l := c.LeasedBuf(id, own); sameBuf(buf, own) || l != 0 {
				t.Errorf("call %d after the drop: LeasedBuf gave own buffer or lease %d, want a fresh buffer and 0", call, l)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Faults.Lost != 1 {
		t.Fatalf("%d messages lost, want the leased payload only", res.Stats.Faults.Lost)
	}
}
