package mpi

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/netsim"
)

func TestReliableOffIsByteIdentical(t *testing.T) {
	body := func(c *Comm) {
		if c.Reliable() {
			t.Error("reliable mode on without a fault plan")
		}
		n := c.Size()
		for i := 0; i < n; i++ {
			c.Send((c.Rank()+i)%n, 5, []byte{byte(i)})
		}
		for i := 0; i < n; i++ {
			c.Recv((c.Rank()-i+n)%n, 5)
		}
		c.Barrier()
	}
	a := Run(cfgN(12), body)
	b, err := RunChecked(cfgN(12), body)
	if err != nil {
		t.Fatalf("checked run failed: %v", err)
	}
	if a.Time != b.Time || !reflect.DeepEqual(a.Clocks, b.Clocks) {
		t.Error("RunChecked without faults differs from Run")
	}
}

func TestReliableDedupKeepsFIFO(t *testing.T) {
	// Every message duplicated: sequence numbers must discard the copies
	// so a reused tag still delivers in order.
	cfg := cfgN(2)
	cfg.Faults = &netsim.FaultPlan{Seed: 1, DuplicateProb: 1}
	res, err := RunChecked(cfg, func(c *Comm) {
		const k = 20
		if c.Rank() == 0 {
			for i := 0; i < k; i++ {
				c.Send(1, 7, []byte{byte(i)})
			}
		} else {
			for i := 0; i < k; i++ {
				got := c.Recv(0, 7)
				if len(got) != 1 || got[0] != byte(i) {
					t.Fatalf("message %d: got %v", i, got)
				}
			}
		}
	})
	if err != nil {
		t.Fatalf("run error: %v", err)
	}
	if res.Stats.Faults.Duplicates == 0 {
		t.Error("no duplicates injected")
	}
}

func TestLostMessageRaisesFaultError(t *testing.T) {
	cfg := cfgN(2)
	cfg.Faults = &netsim.FaultPlan{Seed: 2, DropProb: 1,
		Retry: netsim.RetryPolicy{MaxRetries: 1, RTO: 1e-6, Backoff: 2}}
	_, err := RunChecked(cfg, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 7, []byte("doomed"))
		} else {
			c.Recv(0, 7)
		}
	})
	if err == nil {
		t.Fatal("total loss produced no error")
	}
	var fe *FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("error %v carries no *FaultError", err)
	}
	if fe.Rank != 1 || fe.Src != 0 || fe.Kind != "timeout" {
		t.Errorf("diagnostic %+v does not blame rank 1's receive from 0", fe)
	}
}

func TestCollectivesSurviveDropStorm(t *testing.T) {
	// Moderate drops with enough retries: barrier, alltoallv, and
	// allreduce all complete with correct values.
	cfg := cfgN(12)
	cfg.Faults = &netsim.FaultPlan{Seed: 3, DropProb: 0.2,
		Retry: netsim.RetryPolicy{MaxRetries: 60, RTO: 1e-6, Backoff: 1.5}}
	res, err := RunChecked(cfg, func(c *Comm) {
		c.Barrier()
		send := make([][]byte, c.Size())
		for d := range send {
			send[d] = []byte{byte(c.Rank())}
		}
		for r, p := range c.Alltoallv(send) {
			if len(p) != 1 || p[0] != byte(r) {
				t.Errorf("rank %d alltoallv[%d] = %v", c.Rank(), r, p)
			}
		}
		if top := c.AllreduceFloat64("max", float64(c.Rank())); top != float64(c.Size()-1) {
			t.Errorf("rank %d max = %g", c.Rank(), top)
		}
		if sum := c.AllreduceFloat64("sum", 1); sum != float64(c.Size()) {
			t.Errorf("rank %d sum = %g", c.Rank(), sum)
		}
	})
	if err != nil {
		t.Fatalf("collectives failed under drops: %v", err)
	}
	if res.Stats.Faults.Retries == 0 {
		t.Error("no retries exercised")
	}
}

func TestAlltoallvUnderFaults(t *testing.T) {
	cfg := cfgN(12)
	cfg.Faults = &netsim.FaultPlan{Seed: 4, DropProb: 0.1, DuplicateProb: 0.1,
		Retry: netsim.RetryPolicy{MaxRetries: 60, RTO: 1e-6, Backoff: 1.5}}
	_, err := RunChecked(cfg, func(c *Comm) {
		n := c.Size()
		send := make([][]byte, n)
		for d := range send {
			send[d] = bytes.Repeat([]byte{byte(c.Rank()<<4 | d)}, 128)
		}
		recv := c.Alltoallv(send)
		for s, p := range recv {
			want := bytes.Repeat([]byte{byte(s<<4 | c.Rank())}, 128)
			if !bytes.Equal(p, want) {
				t.Errorf("rank %d from %d: wrong payload", c.Rank(), s)
			}
		}
	})
	if err != nil {
		t.Fatalf("alltoallv failed: %v", err)
	}
}

func TestFenceCheckedReportsSilentCorruption(t *testing.T) {
	// Certain silent corruption of every large put: FenceChecked must
	// name the source instead of handing over mangled data.
	cfg := cfgN(2)
	cfg.Faults = &netsim.FaultPlan{Seed: 5, SilentCorruptProb: 1}
	_, err := RunChecked(cfg, func(c *Comm) {
		buf := make([]byte, 512)
		w := c.WinCreate(buf)
		expected := make([]int, c.Size())
		if c.Rank() == 0 {
			w.Put(1, 0, bytes.Repeat([]byte{0xee}, 256))
		} else {
			expected[0] = 1
		}
		rep := w.FenceChecked(expected)
		if c.Rank() == 1 {
			if len(rep.Corrupt) != 1 || rep.Corrupt[0] != 0 {
				t.Errorf("report %+v does not blame rank 0", rep)
			}
		} else if !rep.OK() {
			t.Errorf("rank 0 report %+v not OK", rep)
		}
	})
	if err != nil {
		t.Fatalf("run error: %v", err)
	}
}

func TestFenceHealsDuplicatesAndDelivers(t *testing.T) {
	// Duplicated puts across two reused epochs: the epoch/idx framing
	// must deliver each epoch's data exactly once.
	cfg := cfgN(2)
	cfg.Faults = &netsim.FaultPlan{Seed: 6, DuplicateProb: 1}
	_, err := RunChecked(cfg, func(c *Comm) {
		buf := make([]byte, 256)
		w := c.WinCreate(buf)
		for epoch := 0; epoch < 2; epoch++ {
			expected := make([]int, c.Size())
			if c.Rank() == 0 {
				w.Put(1, 0, bytes.Repeat([]byte{byte(0x10 + epoch)}, 128))
			} else {
				expected[0] = 1
			}
			rep := w.FenceChecked(expected)
			if !rep.OK() {
				t.Errorf("epoch %d report %+v", epoch, rep)
			}
			if c.Rank() == 1 && buf[0] != byte(0x10+epoch) {
				t.Errorf("epoch %d window holds %#x", epoch, buf[0])
			}
		}
	})
	if err != nil {
		t.Fatalf("run error: %v", err)
	}
}

func TestPlainFencePanicsOnDamage(t *testing.T) {
	cfg := cfgN(2)
	cfg.Faults = &netsim.FaultPlan{Seed: 7, SilentCorruptProb: 1}
	_, err := RunChecked(cfg, func(c *Comm) {
		w := c.WinCreate(make([]byte, 512))
		expected := make([]int, c.Size())
		if c.Rank() == 0 {
			w.Put(1, 0, bytes.Repeat([]byte{1}, 256))
		} else {
			expected[0] = 1
		}
		w.Fence(expected)
	})
	var fe *FaultError
	if !errors.As(err, &fe) || fe.Op != "fence" {
		t.Fatalf("expected a fence *FaultError, got %v", err)
	}
}

func TestMismatchedPairDeadlockDiagnostic(t *testing.T) {
	// Satellite check at the runtime level: a deliberately mismatched
	// send/recv pair yields a diagnostic naming both blocked ranks and
	// their pending tags.
	_, err := RunChecked(cfgN(2), func(c *Comm) {
		if c.Rank() == 0 {
			c.Recv(1, 100) // rank 1 sends on tag 200 instead
			c.Send(1, 300, nil)
		} else {
			c.Recv(0, 300) // waits before sending: classic crossed pair
			c.Send(0, 200, nil)
		}
	})
	var re *netsim.RunError
	if !errors.As(err, &re) || re.Deadlock == nil {
		t.Fatalf("expected deadlock diagnostic, got %v", err)
	}
	if len(re.Deadlock.Blocked) != 2 {
		t.Fatalf("blocked list %+v, want both ranks", re.Deadlock.Blocked)
	}
	b := re.Deadlock.Blocked
	if b[0].Rank != 0 || b[0].Src != 1 || b[0].Tag != 100 ||
		b[1].Rank != 1 || b[1].Src != 0 || b[1].Tag != 300 {
		t.Errorf("diagnostic %+v does not name both pending ops", b)
	}
}

func TestCrashedPeerTimesOutCollective(t *testing.T) {
	cfg := cfgN(2)
	cfg.Faults = &netsim.FaultPlan{Seed: 8, CrashRank: 1, CrashAt: 1e-9}
	_, err := RunChecked(cfg, func(c *Comm) {
		// Rank 1 crashes after injecting its first-round message, so the
		// first barrier still completes on rank 0; the second one must be
		// cut short by the watchdog, not hang.
		c.Barrier()
		c.Barrier()
	})
	var fe *FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("expected *FaultError from the barrier watchdog, got %v", err)
	}
	if fe.Op != "collective" || fe.Rank != 0 {
		t.Errorf("diagnostic %+v, want rank 0 collective timeout", fe)
	}
}
