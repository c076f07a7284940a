package exchange

import (
	"encoding/binary"
	"fmt"

	"repro/internal/mem"
	"repro/internal/mpi"
	"repro/internal/obs"
)

// Self-healing protocol tags (user tag space, alongside the exchange
// algorithms' data tags).
const (
	tagVerdict  = 104 // 1-byte per-epoch verdict: did your put survive?
	tagRepair   = 105 // lossless re-fetch of a damaged slot
	tagFallback = 106 // two-sided path of a downgraded peer
)

// Metric names of the self-healing layer.
const (
	metricRepairs       = "exchange/repairs"
	metricFallbackPeers = "exchange/fallback_peers"
	metricRepromotions  = "exchange/repromotions"
)

// The degradation ladder of the self-healing ring (docs/ROBUSTNESS.md):
// a peer link steps from the compressed or raw one-sided fast path down
// to the lossless two-sided transport after fallbackAfter damaged
// epochs, and — after repromoteAfter clean epochs there — is probed on
// the one-sided path again. A failed probe re-demotes immediately and
// doubles the wait before the next probe (hysteresis), up to
// maxProbeWait epochs; a clean probe restores the link fully, clearing
// its damage counters.
const (
	fallbackAfter  = 3
	repromoteAfter = 4
	maxProbeWait   = 16 * repromoteAfter
)

// Degradation reports how far a self-healing exchange has drifted from
// its pure one-sided fast path: Repairs counts slots re-fetched over
// the two-sided transport after a fence found them corrupt or missing,
// Fallback lists the peers (either direction) currently downgraded to
// the two-sided path, and Promotions counts links restored to the fast
// path after a clean probe. The zero value means the exchange is
// healthy.
type Degradation struct {
	Repairs    int64
	Fallback   []int
	Promotions int64
}

// Degraded reports whether the exchange left the fast path at all.
func (d Degradation) Degraded() bool { return d.Repairs > 0 || len(d.Fallback) > 0 }

// String renders the report for logs and diagnostics.
func (d Degradation) String() string {
	if !d.Degraded() && d.Promotions == 0 {
		return "healthy"
	}
	s := fmt.Sprintf("%d repairs, fallback peers %v", d.Repairs, d.Fallback)
	if d.Promotions > 0 {
		s += fmt.Sprintf(", %d re-promotions", d.Promotions)
	}
	return s
}

// healer is the per-peer damage ledger of a Ring: the ring runs the
// post-fence verdict/repair round over it (epilogue), escalates
// repeatedly failing links to the two-sided fallback, and probes demoted
// links for re-promotion after a hysteresis wait. A ring allocates its
// ledger when it first heals (the runtime is in reliable mode) or a
// checkpoint asks for it; without a fault plan it takes exactly the
// fast path.
//
// Every link is symmetric: the source's to[d] mirrors d's from[source],
// and both sides change them in the same epoch (demotion via the same
// verdict, probe via the same epoch counter). The exchanges' message
// pattern depends on this state, so symmetry is what keeps the protocol
// deadlock-free.
type healer struct {
	c                   *mpi.Comm
	epoch               int    // exchanges completed (all ranks agree; collective)
	from, to            []link // per source, per destination
	repairs, promotions int64
	// damaged marks this epoch's sources whose put payload did not
	// survive (fence report or decode failure); buf holds the raw bytes
	// of a fallback or repair send.
	damaged []bool
	buf     []byte
}

// link is one direction of one peer link in the ledger.
type link struct {
	fail  int  // damaged epochs from a source, resend demands to a destination
	fell  bool // the link now runs over the two-sided path
	probe int  // epoch at which to probe it (0 = none)
	wait  int  // its current hysteresis wait
	// probing marks a link re-enabled for this epoch only: damage
	// re-demotes it immediately (no fresh threshold), a clean epoch
	// promotes it fully. Always false between exchanges.
	probing bool
}

// due re-enables a fallen link whose probe is due at epoch for that
// epoch, and reports whether it did.
func (l *link) due(epoch int) bool {
	if !l.fell || l.probe != epoch {
		return false
	}
	l.fell, l.probing = false, true
	return true
}

// damage counts one damaged epoch and reports whether it demotes the
// link to the two-sided path, scheduling its re-promotion probe: a
// failed probe doubles the wait (capped), a fresh demotion starts at
// the base wait.
func (l *link) damage(epoch int) bool {
	if l.fail++; l.fail < fallbackAfter || l.fell {
		return false
	}
	l.fell = true
	if l.probing {
		l.probing = false
		l.wait = min(2*l.wait, maxProbeWait)
	} else {
		l.wait = repromoteAfter
	}
	l.probe = epoch + l.wait
	return true
}

// promote restores a link whose probe epoch ran clean to the fast path,
// clearing its ledger, and reports whether it did.
func (l *link) promote() bool {
	if !l.probing {
		return false
	}
	*l = link{}
	return true
}

func newHealer(c *mpi.Comm) *healer {
	p := c.Size()
	return &healer{c: c, from: make([]link, p), to: make([]link, p), damaged: make([]bool, p)}
}

// ledger returns the ring's healing ledger, allocating it on first use.
func (x *Ring) ledger() *healer {
	if x.heal == nil {
		x.heal = newHealer(x.c)
	}
	return x.heal
}

// Health reports the cumulative degradation of this exchange: repaired
// slots and peers downgraded to the two-sided path. Repaired and
// fallen-back slots arrive lossless (raw bytes), trading a codec's
// compression win for integrity. Always healthy without a fault plan.
func (x *Ring) Health() Degradation {
	if x.heal == nil {
		return Degradation{}
	}
	return x.heal.report()
}

// LedgerState serializes the healing ledger (per-peer damage counters,
// fallback flags, and re-promotion schedule) for an epoch checkpoint.
func (x *Ring) LedgerState() []byte { return x.ledger().state() }

// RestoreLedger installs a checkpointed healing ledger, rolling the
// degradation decisions back to the committed epoch.
func (x *Ring) RestoreLedger(data []byte) error { return x.ledger().restore(data) }

// beginEpoch opens one healing exchange epoch: the epoch counter
// advances and demoted links whose probe is due are re-enabled for this
// epoch. Must be called exactly once per exchange, before any state is
// consulted — both endpoints of a link see the same epoch number, so
// both flip the link in the same exchange.
func (h *healer) beginEpoch() {
	h.epoch++
	for p := range h.to {
		if h.to[p].due(h.epoch) {
			h.c.Obs().Emit(obs.Event{T: h.c.Now(), Kind: obs.EventRecovery, Label: "probe", Peer: p, Value: -1})
		}
		h.from[p].due(h.epoch)
	}
}

// report snapshots the cumulative degradation.
func (h *healer) report() Degradation {
	d := Degradation{Repairs: h.repairs, Promotions: h.promotions}
	for p := range h.from {
		if h.from[p].fell || h.to[p].fell {
			d.Fallback = append(d.Fallback, p)
		}
	}
	return d
}

// maskExpected returns expected with fallen-back sources zeroed (their
// data now arrives over two-sided, so the fence must not wait for
// puts). The original slice is never modified.
func (h *healer) maskExpected(expected []int) []int {
	masked := append([]int(nil), expected...)
	for s := range h.from {
		if h.from[s].fell {
			masked[s] = 0
		}
	}
	return masked
}

// damagedBy resets damaged to the sources a fence report flags,
// corrupt or missing.
func (h *healer) damagedBy(rep mpi.FenceReport) {
	clear(h.damaged)
	for _, s := range rep.Corrupt {
		h.damaged[s] = true
	}
	for _, s := range rep.Missing {
		h.damaged[s] = true
	}
}

// buffer returns n bytes of word-aligned scratch for a raw payload the
// two-sided path sends (and copies: it frames every reliable send).
func (h *healer) buffer(n int) []byte {
	if len(h.buf) < n {
		h.buf = mem.Bytes(n)
	}
	return h.buf[:n]
}

// epilogue is the reliable-mode close of one ring exchange, the heal
// ladder of every column: it drains the two-sided deliveries of
// fallen-back sources, then runs the post-fence verdict/repair protocol
// over the peers that exchanged puts this epoch, re-fetching each
// source h.damaged marks. Fallbacks and repairs carry the raw bytes
// (lossless), which go back through io.Received as they land.
//
// The round is deadlock-free by construction: it is send-only until
// every peer's matching send has been issued (simulated sends never
// block), so verdict receives consume step-1 sends and repair receives
// consume step-3 sends.
func (x *Ring) epilogue(io Payloads, h *healer) {
	c := x.c
	me := c.Rank()
	p := len(x.expected)
	accept := func(s int, data []byte) {
		if n := x.size(me, s); len(data) != n {
			panic(fmt.Sprintf("exchange: lossless payload from rank %d carried %d bytes, want %d", s, len(data), n))
		}
		io.Received(s, data)
	}
	for s := 0; s < p; s++ {
		if x.expected[s] > 0 && h.from[s].fell {
			accept(s, c.Recv(s, tagFallback))
		}
	}
	putSrc := make([]bool, p)
	putDst := make([]bool, p)
	for r := 0; r < p; r++ {
		putSrc[r] = x.expected[r] > 0 && !h.from[r].fell
		putDst[r] = x.size(r, me) > 0 && !h.to[r].fell
	}
	// Step 1: tell every put source whether its data survived.
	for s := range putSrc {
		if !putSrc[s] {
			continue
		}
		v := []byte{0}
		if h.damaged[s] {
			v[0] = 1
		}
		c.Send(s, tagVerdict, v)
	}
	// Step 2: learn which destinations demand a resend.
	rk := c.Obs()
	var resendTo []int
	for d := range putDst {
		if !putDst[d] {
			continue
		}
		v := c.Recv(d, tagVerdict)
		if len(v) != 1 {
			panic(fmt.Sprintf("exchange: verdict from rank %d carried %d bytes, want 1", d, len(v)))
		}
		if v[0] == 0 {
			if h.to[d].promote() {
				// Clean probe epoch: the link earns its fast path back.
				h.promotions++
				rk.Add(metricRepromotions, 1)
				rk.Emit(obs.Event{T: c.Now(), Kind: obs.EventRecovery, Label: "repromote", Peer: d, Value: -1})
			}
			continue
		}
		resendTo = append(resendTo, d)
		if h.to[d].damage(h.epoch) {
			rk.Add(metricFallbackPeers, 1)
			rk.Emit(obs.Event{T: c.Now(), Kind: obs.EventFallback, Label: "to", Peer: d, Value: float64(h.to[d].fail)})
		}
	}
	// Step 3: resend damaged slots over the two-sided path (checksummed
	// and retried by the runtime — this copy arrives intact or fails
	// loudly, never silently corrupt).
	for _, d := range resendTo {
		n := x.size(d, me)
		c.Send(d, tagRepair, sendOf(io, d, n, h.buffer(n)))
	}
	// Step 4: install the repaired slots.
	for s := range putSrc {
		if !putSrc[s] || !h.damaged[s] {
			continue
		}
		accept(s, c.Recv(s, tagRepair))
		h.repairs++
		rk.Add(metricRepairs, 1)
		rk.Emit(obs.Event{T: c.Now(), Kind: obs.EventRepair, Peer: s, Value: 1})
		if h.from[s].damage(h.epoch) {
			rk.Add(metricFallbackPeers, 1)
			rk.Emit(obs.Event{T: c.Now(), Kind: obs.EventFallback, Label: "from", Peer: s, Value: float64(h.from[s].fail)})
		}
	}
	// Clean probe epochs in the source direction promote too (the
	// destination's mirror of the step-2 bookkeeping).
	for s := range putSrc {
		if putSrc[s] && !h.damaged[s] && h.from[s].promote() {
			h.promotions++
			rk.Add(metricRepromotions, 1)
		}
	}
}

// ledgerVersion tags the serialized healer state (see state/restore).
const ledgerVersion = 1

// state serializes the healer's per-link ledger — the part of an
// exchange's state that must survive a checkpoint/rollback cycle so a
// resumed pipeline keeps the same degradation decisions it would have
// made without the crash: a 28-byte header, then 25 bytes per peer.
func (h *healer) state() []byte {
	le := binary.LittleEndian
	buf := le.AppendUint32(nil, ledgerVersion)
	buf = le.AppendUint32(buf, uint32(len(h.from)))
	buf = le.AppendUint32(buf, uint32(h.epoch))
	buf = le.AppendUint64(buf, uint64(h.repairs))
	buf = le.AppendUint64(buf, uint64(h.promotions))
	for i, f := range h.from {
		t := h.to[i]
		buf = le.AppendUint32(le.AppendUint32(buf, uint32(f.fail)), uint32(t.fail))
		var flags byte
		if f.fell {
			flags |= 1
		}
		if t.fell {
			flags |= 2
		}
		buf = append(buf, flags)
		for _, v := range [4]int{f.probe, t.probe, f.wait, t.wait} {
			buf = le.AppendUint32(buf, uint32(v))
		}
	}
	return buf
}

// restore installs a ledger serialized by state.
func (h *healer) restore(data []byte) error {
	p := len(h.from)
	if want := 28 + 25*p; len(data) != want {
		return fmt.Errorf("exchange: ledger state is %d bytes, want %d", len(data), want)
	}
	le := binary.LittleEndian
	u32 := func(at int) int { return int(le.Uint32(data[at:])) }
	if v := u32(0); v != ledgerVersion {
		return fmt.Errorf("exchange: ledger version %d, want %d", v, ledgerVersion)
	}
	if n := u32(4); n != p {
		return fmt.Errorf("exchange: ledger covers %d peers, exchange has %d", n, p)
	}
	h.epoch = u32(8)
	h.repairs, h.promotions = int64(le.Uint64(data[12:])), int64(le.Uint64(data[20:]))
	for i := range h.from {
		at := 28 + 25*i
		h.from[i] = link{fail: u32(at), fell: data[at+8]&1 != 0, probe: u32(at + 9), wait: u32(at + 17)}
		h.to[i] = link{fail: u32(at + 4), fell: data[at+8]&2 != 0, probe: u32(at + 13), wait: u32(at + 21)}
	}
	return nil
}
