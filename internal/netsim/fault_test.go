package netsim

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// faultBody is a small all-to-all-ish workload used by the fault tests.
func faultBody(t *testing.T, wantOK bool) func(*Proc) {
	return func(p *Proc) {
		n := p.Size()
		for i := 0; i < n; i++ {
			dst := (p.Rank() + i) % n
			p.Send(dst, i, []byte{byte(dst)}, 4096)
		}
		for i := 0; i < n; i++ {
			src := (p.Rank() - i + n) % n
			pkt := p.Recv(src, i)
			if wantOK && (len(pkt.Payload) != 1 || pkt.Payload[0] != byte(p.Rank())) {
				t.Errorf("rank %d got payload %v from %d", p.Rank(), pkt.Payload, src)
			}
		}
	}
}

func TestFaultsNilIsByteIdentical(t *testing.T) {
	// The acceptance invariant: a nil fault plan must leave virtual
	// times exactly as they were before the fault layer existed — same
	// code path, not just "close".
	cfg := Summit(2)
	base := Run(cfg, faultBody(t, true))
	cfg.Faults = nil
	again := Run(cfg, faultBody(t, true))
	if base.Time != again.Time || !reflect.DeepEqual(base.Clocks, again.Clocks) {
		t.Errorf("results differ with nil fault plan:\n%+v\n%+v", base, again)
	}
	if base.Stats.Faults != (FaultStats{}) {
		t.Errorf("fault counters nonzero without a plan: %+v", base.Stats.Faults)
	}
}

func TestFaultDeterminism(t *testing.T) {
	cfg := Summit(2)
	cfg.Faults = &FaultPlan{Seed: 42, DropProb: 0.2, DuplicateProb: 0.1,
		LatencySpikeProb: 0.1, LatencySpike: 100e-6}
	a := Run(cfg, faultBody(t, true))
	b := Run(cfg, faultBody(t, true))
	if a.Time != b.Time || !reflect.DeepEqual(a.Clocks, b.Clocks) || a.Stats != b.Stats {
		t.Errorf("same seed produced different runs:\n%+v\n%+v", a.Stats.Faults, b.Stats.Faults)
	}
	if a.Stats.Faults.Drops == 0 {
		t.Error("drop storm injected no drops")
	}
}

func TestTransportRetriesHealDrops(t *testing.T) {
	// Moderate drop probability with generous retries: everything is
	// delivered (intact), just later; Retries > 0, Lost == 0.
	cfg := Summit(2)
	cfg.Faults = &FaultPlan{Seed: 7, DropProb: 0.3,
		Retry: RetryPolicy{MaxRetries: 50, RTO: 1e-6, Backoff: 1.5}}
	res := Run(cfg, faultBody(t, true))
	f := res.Stats.Faults
	if f.Retries == 0 {
		t.Error("expected transport retries")
	}
	if f.Lost != 0 {
		t.Errorf("lost %d messages despite generous retry budget", f.Lost)
	}
	if f.RetryDelayS <= 0 {
		t.Error("retries added no delay")
	}
	// And the run is no faster than the fault-free one (retry backoff
	// only ever delays arrivals).
	clean := Run(Summit(2), faultBody(t, true))
	if res.Time < clean.Time {
		t.Errorf("faulted run (%g) faster than clean run (%g)", res.Time, clean.Time)
	}
}

func TestPermanentLossTimesOutWithDeadline(t *testing.T) {
	// DropProb 1 with no retries: the message never arrives; the
	// receiver's watchdog deadline fires instead of hanging.
	cfg := tiny()
	cfg.Faults = &FaultPlan{Seed: 1, DropProb: 1,
		Retry: RetryPolicy{MaxRetries: 1, RTO: 1e-6, Backoff: 2}}
	var timedOut bool
	res, err := RunChecked(cfg, func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, 3, []byte("x"), 1000)
		} else {
			_, ok := p.RecvDeadline(0, 3, 5e-3)
			timedOut = !ok
			if !timedOut {
				t.Error("receive succeeded despite total loss")
			}
			if math.Abs(p.Now()-5e-3) > 1e-12 {
				t.Errorf("clock after timeout = %g, want 5e-3", p.Now())
			}
		}
	})
	if err != nil {
		t.Fatalf("unexpected run error: %v", err)
	}
	if !timedOut {
		t.Error("watchdog deadline never fired")
	}
	if res.Stats.Faults.Lost == 0 {
		t.Error("no permanent loss recorded")
	}
}

func TestRecvDeadlineUnaffectedByHealthyTraffic(t *testing.T) {
	// A deadline far beyond the arrival must not alter timing.
	cfg := tiny()
	Run(cfg, func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, 3, []byte("x"), 1_000_000)
		} else {
			pkt, ok := p.RecvDeadline(0, 3, 1.0)
			if !ok {
				t.Fatal("deadline fired on healthy traffic")
			}
			want := 1e-3 + 1e-6
			if math.Abs(pkt.Arrival-want) > 1e-12 {
				t.Errorf("arrival %g, want %g", pkt.Arrival, want)
			}
		}
	})
}

func TestDuplicateDelivery(t *testing.T) {
	cfg := tiny()
	cfg.Faults = &FaultPlan{Seed: 3, DuplicateProb: 1}
	Run(cfg, func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, 9, []byte{42}, 100)
		} else {
			a := p.Recv(0, 9)
			b := p.Recv(0, 9) // the duplicate — same content
			if a.Payload[0] != 42 || b.Payload[0] != 42 {
				t.Errorf("payloads %v %v", a.Payload, b.Payload)
			}
		}
	})
}

func TestSilentCorruptionOnlyHitsLargePuts(t *testing.T) {
	cfg := tiny()
	cfg.Faults = &FaultPlan{Seed: 5, SilentCorruptProb: 1, SilentMinBytes: 64}
	small := []byte{1, 2, 3}
	big := make([]byte, 256)
	Run(cfg, func(p *Proc) {
		if p.Rank() == 0 {
			p.SendMsg(1, 1, SendOpts{Payload: small, Bytes: len(small)})                  // two-sided: safe
			p.SendMsg(1, 2, SendOpts{Payload: big, Bytes: len(big), Unmatched: true})     // put: mangled
			p.SendMsg(1, 3, SendOpts{Payload: small, Bytes: len(small), Unmatched: true}) // small put: safe
		} else {
			if got := p.Recv(0, 1); !reflect.DeepEqual(got.Payload, small) {
				t.Error("two-sided payload corrupted")
			}
			if got := p.Recv(0, 2); reflect.DeepEqual(got.Payload, big) {
				t.Error("large put survived SilentCorruptProb=1")
			}
			if got := p.Recv(0, 3); !reflect.DeepEqual(got.Payload, small) {
				t.Error("small put corrupted below SilentMinBytes")
			}
		}
	})
	// The original buffer must be untouched (corruption copies).
	for _, b := range big {
		if b != 0 {
			t.Fatal("corrupt() mutated the sender's buffer")
		}
	}
}

func TestCrashRankSurfacesAsDiagnostic(t *testing.T) {
	cfg := tiny()
	cfg.Faults = &FaultPlan{Seed: 9, CrashRank: 1, CrashAt: 1e-9}
	_, err := RunChecked(cfg, func(p *Proc) {
		if p.Rank() == 0 {
			p.Recv(1, 5) // rank 1 dies before sending
		} else {
			p.Elapse(1e-3)
			p.Send(0, 5, nil, 100)
		}
	})
	if err == nil {
		t.Fatal("crash produced no error")
	}
	var dead *DeadlockError
	var re *RunError
	if !errors.As(err, &re) || re.Deadlock == nil {
		t.Fatalf("error %v is not a RunError with deadlock diagnostic", err)
	}
	dead = re.Deadlock
	if len(dead.Blocked) != 1 || dead.Blocked[0].Rank != 0 || dead.Blocked[0].Src != 1 || dead.Blocked[0].Tag != 5 {
		t.Errorf("diagnostic %+v does not name rank 0 waiting on (1, 5)", dead.Blocked)
	}
}

func TestDeadlockDiagnosticNamesBothRanks(t *testing.T) {
	// Satellite: a deliberately mismatched send/recv pair must produce a
	// diagnostic naming both blocked ranks and their pending tags.
	_, err := RunChecked(tiny(), func(p *Proc) {
		// Rank 0 waits on tag 11, rank 1 on tag 22; nobody sends.
		p.Recv(1-p.Rank(), 11*(p.Rank()+1))
	})
	var re *RunError
	if !errors.As(err, &re) || re.Deadlock == nil {
		t.Fatalf("expected deadlock diagnostic, got %v", err)
	}
	msg := err.Error()
	for _, want := range []string{
		"rank 0 waits for (src=1, tag=11)",
		"rank 1 waits for (src=0, tag=22)",
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("diagnostic %q missing %q", msg, want)
		}
	}
}

func TestRunCheckedCollectsPanics(t *testing.T) {
	_, err := RunChecked(tiny(), func(p *Proc) {
		if p.Rank() == 1 {
			panic("boom")
		}
	})
	var re *RunError
	if !errors.As(err, &re) || len(re.Failures) != 1 || re.Failures[0].Rank != 1 {
		t.Fatalf("expected one rank-1 failure, got %v", err)
	}
	if !strings.Contains(err.Error(), "boom") {
		t.Errorf("error %q does not carry the panic value", err.Error())
	}
}

// TestRunErrorListsFailuresInOrder: the message lists the failures in
// the order they happened, not as sorted strings (which put "rank 10"
// before "rank 2"), so its first line is the failure Unwrap returns.
func TestRunErrorListsFailuresInOrder(t *testing.T) {
	cfg := tiny()
	cfg.Nodes = 12
	_, err := RunChecked(cfg, func(p *Proc) {
		if p.Rank() == 2 || p.Rank() == 10 {
			panic(fmt.Errorf("fault on rank %d", p.Rank()))
		}
	})
	var re *RunError
	if !errors.As(err, &re) || len(re.Failures) != 2 || re.Failures[0].Rank != 2 || re.Failures[1].Rank != 10 {
		t.Fatalf("expected failures on ranks 2 then 10, got %v", err)
	}
	if want := "rank 2: fault on rank 2; rank 10: fault on rank 10"; err.Error() != want {
		t.Errorf("error %q, want %q", err.Error(), want)
	}
	if got := errors.Unwrap(err); got != re.Failures[0].Value {
		t.Errorf("Unwrap = %v, want the first failure", got)
	}
}

func TestDegradedNodeSlowsTransfers(t *testing.T) {
	cfg := tiny()
	cfg.Faults = &FaultPlan{Seed: 11, DegradedNodes: map[int]float64{1: 0.5}}
	res := Run(cfg, func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, 1, nil, 1_000_000)
		} else {
			pkt := p.Recv(0, 1)
			p.AdvanceTo(pkt.Arrival)
		}
	})
	want := 2e-3 + 1e-6 // half bandwidth doubles the 1 ms serialization
	if math.Abs(res.Time-want) > 1e-9 {
		t.Errorf("degraded transfer time %g, want %g", res.Time, want)
	}
}

func TestStallDelaysSender(t *testing.T) {
	cfg := tiny()
	cfg.Faults = &FaultPlan{Seed: 2, StallProb: 1, Stall: 1e-3}
	var senderClock float64
	Run(cfg, func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, 1, nil, 1000)
			senderClock = p.Now()
		} else {
			p.Recv(0, 1)
		}
	})
	if senderClock < 1e-3 {
		t.Errorf("sender clock %g shows no stall", senderClock)
	}
}

func TestRandomPlanCoversScenarios(t *testing.T) {
	seen := map[string]bool{}
	for seed := int64(0); seed < 21; seed++ {
		p := RandomPlan(seed)
		seen[p.Scenario()] = true
		// Every plan must be runnable without hanging the engine.
		cfg := Summit(2)
		cfg.Faults = p
		_, _ = RunChecked(cfg, func(q *Proc) {
			if q.Rank() == 0 {
				q.Send(1, 0, nil, 1000)
			} else if q.Rank() == 1 {
				_, _ = q.RecvDeadline(0, 0, 10e-3)
			}
		})
	}
	if len(seen) < 5 {
		t.Errorf("21 seeds produced only %d scenario classes: %v", len(seen), seen)
	}
}
