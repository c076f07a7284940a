package exchange

import (
	"bytes"
	"testing"

	"repro/internal/compress"
	"repro/internal/gpu"
	"repro/internal/mpi"
	"repro/internal/netsim"
)

// silentPlan corrupts every sufficiently large put payload without
// touching the two-sided path — the worst case for a one-sided
// exchange, and the scenario the self-healing round exists for.
func silentPlan(seed int64) *netsim.FaultPlan {
	return &netsim.FaultPlan{Seed: seed, SilentCorruptProb: 1}
}

func TestOSCHealsSilentCorruption(t *testing.T) {
	// Every put is mangled in flight; the exchange must still deliver
	// bit-identical data by re-fetching each slot over the two-sided
	// path, and must say so in its degradation report.
	cfg := machine(1)
	cfg.Faults = silentPlan(11)
	p := cfg.Ranks()
	const msg = 128 // ≥ the silent-corruption floor
	res, err := mpi.RunChecked(cfg, func(c *mpi.Comm) {
		me := c.Rank()
		send := make([][]byte, p)
		for d := 0; d < p; d++ {
			send[d] = payload(me, d, msg)
		}
		o := NewOSC(c, Uniform(msg), true)
		got := o.Exchange(send)
		for s := 0; s < p; s++ {
			if !bytes.Equal(got[s], payload(s, me, msg)) {
				t.Errorf("rank %d from %d: corrupt data survived healing", me, s)
			}
		}
		if h := o.Health(); h.Repairs == 0 {
			t.Errorf("rank %d healed nothing under certain corruption: %v", me, h)
		}
	})
	if err != nil {
		t.Fatalf("run error: %v", err)
	}
	if res.Stats.Faults.SilentCorrupt == 0 {
		t.Error("no silent corruption injected")
	}
}

func TestOSCFallsBackAfterRepeatedDamage(t *testing.T) {
	// Certain corruption on every epoch: after the threshold the
	// exchange must abandon the one-sided path per peer and keep
	// delivering over two-sided, still bit-identical.
	cfg := machine(1)
	cfg.Faults = silentPlan(12)
	p := cfg.Ranks()
	const msg = 128
	iters := fallbackAfter + 2
	_, err := mpi.RunChecked(cfg, func(c *mpi.Comm) {
		me := c.Rank()
		o := NewOSC(c, Uniform(msg), true)
		for iter := 0; iter < iters; iter++ {
			send := make([][]byte, p)
			for d := 0; d < p; d++ {
				send[d] = payload(me+iter, d, msg)
			}
			got := o.Exchange(send)
			for s := 0; s < p; s++ {
				if !bytes.Equal(got[s], payload(s+iter, me, msg)) {
					t.Errorf("iter %d rank %d from %d: corrupt", iter, me, s)
				}
			}
		}
		h := o.Health()
		if len(h.Fallback) != p-1 {
			t.Errorf("rank %d fallback peers %v, want all %d partners", me, h.Fallback, p-1)
		}
	})
	if err != nil {
		t.Fatalf("run error: %v", err)
	}
}

// fp16 is the FP64→FP16→FP64 round trip of the Cast16 method.
func fp16(v float64) float64 {
	var b [2]byte
	var d [1]float64
	compress.Cast16{}.Compress(b[:], []float64{v})
	compress.Cast16{}.Decompress(d[:], b[:])
	return d[0]
}

func TestCompressedOSCHealsToLossless(t *testing.T) {
	// A lossy method under certain put corruption: every slot is damaged,
	// every slot is re-fetched as raw FP64 — so the results are exact
	// despite the method's error bound, and the exchange reports full
	// degradation once the threshold trips.
	cfg := machine(1)
	cfg.Faults = silentPlan(13)
	p := cfg.Ranks()
	const vals = 32 // 32 FP16 values + header ≥ the corruption floor
	iters := fallbackAfter + 2
	_, err := mpi.RunChecked(cfg, func(c *mpi.Comm) {
		me := c.Rank()
		x := NewCompressedOSC(c, compress.Cast16{}, gpu.NewStream(gpu.V100(), c), 3, UniformCount(vals))
		for iter := 0; iter < iters; iter++ {
			send := make([][]float64, p)
			for d := 0; d < p; d++ {
				send[d] = make([]float64, vals)
				for i := range send[d] {
					// Not FP16-representable: only a lossless delivery
					// reproduces these bits.
					send[d][i] = float64(me*1000+d*100+i*10+iter) / 7
				}
			}
			got := x.Exchange(send)
			for s := 0; s < p; s++ {
				for i := 0; i < vals; i++ {
					want := float64(s*1000+me*100+i*10+iter) / 7
					if s == me {
						// Self puts never cross the corrupting network, so
						// the self slot arrives on the normal lossy path.
						want = fp16(want)
					}
					if got[s][i] != want {
						t.Errorf("iter %d rank %d from %d value %d: lossy or corrupt delivery", iter, me, s, i)
					}
				}
			}
		}
		h := x.Health()
		if h.Repairs == 0 || len(h.Fallback) != p-1 {
			t.Errorf("rank %d degradation %v, want repairs and all %d partners fallen back", me, h, p-1)
		}
	})
	if err != nil {
		t.Fatalf("run error: %v", err)
	}
}

func TestOSCRepromotesAfterCleanProbe(t *testing.T) {
	// A demoted link whose damage has stopped must earn its one-sided
	// path back: after the hysteresis wait the exchange probes the link
	// and, finding the epoch clean, clears its damage ledger. The plan
	// carries no active faults, so reliable mode is on but the probe is
	// guaranteed clean — the demotion is installed by hand (symmetric on
	// both endpoints, as the protocol produces it).
	cfg := machine(1)
	cfg.Faults = &netsim.FaultPlan{Seed: 15}
	p := cfg.Ranks()
	const msg = 128
	_, err := mpi.RunChecked(cfg, func(c *mpi.Comm) {
		me := c.Rank()
		o := NewOSC(c, Uniform(msg), true)
		h := o.heal
		for d := 0; d < p; d++ {
			if d == me {
				continue
			}
			h.fellTo[d], h.failTo[d] = true, fallbackAfter
			h.waitTo[d], h.probeTo[d] = repromoteAfter, repromoteAfter
			h.fellFrom[d], h.failFrom[d] = true, fallbackAfter
			h.waitFrom[d], h.probeFrom[d] = repromoteAfter, repromoteAfter
		}
		for iter := 0; iter <= repromoteAfter; iter++ {
			send := make([][]byte, p)
			for d := 0; d < p; d++ {
				send[d] = payload(me+iter, d, msg)
			}
			got := o.Exchange(send)
			for s := 0; s < p; s++ {
				if !bytes.Equal(got[s], payload(s+iter, me, msg)) {
					t.Errorf("iter %d rank %d from %d: corrupt", iter, me, s)
				}
			}
		}
		hd := o.Health()
		if len(hd.Fallback) != 0 {
			t.Errorf("rank %d still fallen back after clean probe: %v", me, hd.Fallback)
		}
		if want := int64(2 * (p - 1)); hd.Promotions != want {
			t.Errorf("rank %d promotions %d, want %d", me, hd.Promotions, want)
		}
		for d := 0; d < p; d++ {
			if d == me {
				continue
			}
			if h.failTo[d] != 0 || h.failFrom[d] != 0 || h.probeTo[d] != 0 || h.probeFrom[d] != 0 {
				t.Errorf("rank %d peer %d: ledger not cleared after promotion", me, d)
			}
		}
	})
	if err != nil {
		t.Fatalf("run error: %v", err)
	}
}

func TestOSCFailedProbeDoublesWait(t *testing.T) {
	// Sustained corruption: the probe at epoch threshold+repromote finds
	// the link still damaged, re-demotes it in the same epoch, and
	// doubles the wait before the next probe (hysteresis) — all while
	// every epoch's data, probe epochs included, stays bit-identical via
	// repairs.
	cfg := machine(1)
	cfg.Faults = silentPlan(16)
	p := cfg.Ranks()
	const msg = 128
	probeAt := fallbackAfter + repromoteAfter // demote at 3, probe at 7
	iters := probeAt + 1
	_, err := mpi.RunChecked(cfg, func(c *mpi.Comm) {
		me := c.Rank()
		o := NewOSC(c, Uniform(msg), true)
		for iter := 0; iter < iters; iter++ {
			send := make([][]byte, p)
			for d := 0; d < p; d++ {
				send[d] = payload(me+iter, d, msg)
			}
			got := o.Exchange(send)
			for s := 0; s < p; s++ {
				if !bytes.Equal(got[s], payload(s+iter, me, msg)) {
					t.Errorf("iter %d rank %d from %d: corrupt", iter, me, s)
				}
			}
		}
		h := o.heal
		hd := o.Health()
		if len(hd.Fallback) != p-1 {
			t.Errorf("rank %d fallback peers %v, want all %d partners re-demoted", me, hd.Fallback, p-1)
		}
		if hd.Promotions != 0 {
			t.Errorf("rank %d promoted %d links under certain corruption", me, hd.Promotions)
		}
		for d := 0; d < p; d++ {
			if d == me {
				continue
			}
			if want := 2 * repromoteAfter; h.waitTo[d] != want {
				t.Errorf("rank %d peer %d: probe wait %d, want doubled %d", me, d, h.waitTo[d], want)
			}
			if want := probeAt + 2*repromoteAfter; h.probeTo[d] != want {
				t.Errorf("rank %d peer %d: next probe at %d, want %d", me, d, h.probeTo[d], want)
			}
		}
	})
	if err != nil {
		t.Fatalf("run error: %v", err)
	}
}

func TestHealerLedgerRoundTrip(t *testing.T) {
	// The serialized ledger must restore every field that drives protocol
	// decisions — checkpoint/rollback depends on it.
	cfg := machine(1)
	cfg.Faults = &netsim.FaultPlan{Seed: 18}
	p := cfg.Ranks()
	_, err := mpi.RunChecked(cfg, func(c *mpi.Comm) {
		o := NewOSC(c, Uniform(64), true)
		h := o.heal
		h.epoch = 9
		h.repairs, h.promotions = 5, 2
		for d := 0; d < p; d++ {
			h.failTo[d], h.failFrom[d] = d, d+1
			h.fellTo[d], h.fellFrom[d] = d%2 == 0, d%3 == 0
			h.probeTo[d], h.probeFrom[d] = 10+d, 20+d
			h.waitTo[d], h.waitFrom[d] = 4+d, 8+d
		}
		state := o.LedgerState()

		o2 := NewOSC(c, Uniform(64), true)
		if err := o2.RestoreLedger(state); err != nil {
			t.Fatalf("restore: %v", err)
		}
		h2 := o2.heal
		if h2.epoch != 9 || h2.repairs != 5 || h2.promotions != 2 {
			t.Errorf("scalars not restored: epoch %d repairs %d promotions %d", h2.epoch, h2.repairs, h2.promotions)
		}
		for d := 0; d < p; d++ {
			if h2.failTo[d] != h.failTo[d] || h2.failFrom[d] != h.failFrom[d] ||
				h2.fellTo[d] != h.fellTo[d] || h2.fellFrom[d] != h.fellFrom[d] ||
				h2.probeTo[d] != h.probeTo[d] || h2.probeFrom[d] != h.probeFrom[d] ||
				h2.waitTo[d] != h.waitTo[d] || h2.waitFrom[d] != h.waitFrom[d] {
				t.Errorf("peer %d ledger mismatch after round trip", d)
			}
		}
		if err := o2.RestoreLedger(state[:len(state)-1]); err == nil {
			t.Error("truncated ledger accepted")
		}
		bad := append([]byte(nil), state...)
		bad[0] = 99 // version
		if err := o2.RestoreLedger(bad); err == nil {
			t.Error("wrong-version ledger accepted")
		}
	})
	if err != nil {
		t.Fatalf("run error: %v", err)
	}
}

func TestHealingIdleWithoutFaults(t *testing.T) {
	// Without a fault plan the healing layer must not run: no repairs,
	// no fallback, and the exchange time identical to an exchange that
	// predates the healing layer (the verdict round would add messages).
	cfg := machine(1)
	p := cfg.Ranks()
	var clean float64
	mpi.Run(cfg, func(c *mpi.Comm) {
		me := c.Rank()
		send := make([][]byte, p)
		for d := 0; d < p; d++ {
			send[d] = payload(me, d, 128)
		}
		o := NewOSC(c, Uniform(128), true)
		o.Exchange(send)
		if h := o.Health(); h.Degraded() {
			t.Errorf("rank %d degraded without faults: %v", me, h)
		}
		c.Barrier()
		if me == 0 {
			clean = c.Now()
		}
	})
	if clean <= 0 {
		t.Fatal("no time recorded")
	}
}

func TestCompressedOSCSurvivesDropStorm(t *testing.T) {
	// Transport-level drops healed by retries underneath the exchange:
	// no degradation surfaces, data intact.
	cfg := machine(1)
	cfg.Faults = &netsim.FaultPlan{Seed: 14, DropProb: 0.15, DuplicateProb: 0.1,
		Retry: netsim.RetryPolicy{MaxRetries: 60, RTO: 1e-6, Backoff: 1.5}}
	p := cfg.Ranks()
	const vals = 40
	res, err := mpi.RunChecked(cfg, func(c *mpi.Comm) {
		me := c.Rank()
		x := NewCompressedOSC(c, compress.None{}, gpu.NewStream(gpu.V100(), c), 3, UniformCount(vals))
		send := make([][]float64, p)
		for d := 0; d < p; d++ {
			send[d] = make([]float64, vals)
			for i := range send[d] {
				send[d][i] = float64(me*1000+d*100+i) / 3
			}
		}
		got := x.Exchange(send)
		for s := 0; s < p; s++ {
			for i := 0; i < vals; i++ {
				if got[s][i] != float64(s*1000+me*100+i)/3 {
					t.Errorf("rank %d from %d value %d corrupt", me, s, i)
				}
			}
		}
	})
	if err != nil {
		t.Fatalf("run error: %v", err)
	}
	if res.Stats.Faults.Retries == 0 {
		t.Error("no retries exercised")
	}
}
