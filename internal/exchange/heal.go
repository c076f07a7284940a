package exchange

import (
	"encoding/binary"
	"fmt"
	"math"

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

// The degradation ladder of the self-healing exchanges
// (docs/ROBUSTNESS.md): a peer link steps from the compressed or raw
// one-sided fast path down to the lossless two-sided transport after
// fallbackAfter damaged epochs, and — after repromoteAfter clean epochs
// there — is probed on the one-sided path again. A failed probe
// re-demotes immediately and doubles the wait before the next probe
// (hysteresis), up to maxProbeWait epochs; a clean probe restores the
// link fully, clearing its damage counters.
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

// healer is the per-peer damage ledger shared by OSC and CompressedOSC:
// it runs the post-fence verdict/repair round, escalates repeatedly
// failing links to the two-sided fallback, and probes demoted links for
// re-promotion after a hysteresis wait. It is inert (and free) unless
// the runtime is in reliable mode.
//
// Every piece of per-link state is symmetric: the source's failTo /
// fellTo / probeTo / waitTo for destination d mirrors d's failFrom /
// fellFrom / probeFrom / waitFrom for the source, and both sides mutate
// them in the same epoch (demotion via the same verdict, probe via the
// same epoch counter). The exchanges' message pattern depends on this
// state, so symmetry is what keeps the protocol deadlock-free.
type healer struct {
	c         *mpi.Comm
	epoch     int    // exchanges completed (all ranks agree; collective)
	failFrom  []int  // damaged epochs per source
	failTo    []int  // resend demands per destination
	fellFrom  []bool // sources now delivering over two-sided
	fellTo    []bool // destinations now reached over two-sided
	probeFrom []int  // epoch at which to probe the source (0 = none)
	probeTo   []int  // epoch at which to probe the destination (0 = none)
	waitFrom  []int  // current hysteresis wait per source
	waitTo    []int  // current hysteresis wait per destination
	// probing marks links re-enabled for this epoch only: damage
	// re-demotes them immediately (no fresh threshold), a clean epoch
	// promotes them fully. Always all-false between exchanges.
	probingFrom []bool
	probingTo   []bool
	repairs     int64
	promotions  int64
}

func newHealer(c *mpi.Comm) *healer {
	p := c.Size()
	return &healer{
		c:        c,
		failFrom: make([]int, p), failTo: make([]int, p),
		fellFrom: make([]bool, p), fellTo: make([]bool, p),
		probeFrom: make([]int, p), probeTo: make([]int, p),
		waitFrom: make([]int, p), waitTo: make([]int, p),
		probingFrom: make([]bool, p), probingTo: make([]bool, p),
	}
}

// active reports whether the healing protocol runs at all. Without a
// fault plan the runtime is not in reliable mode and every exchange
// takes exactly the pre-existing fast path.
func (h *healer) active() bool { return h.c.Reliable() }

// beginEpoch opens one exchange epoch: the epoch counter advances and
// demoted links whose probe is due are re-enabled for this epoch. Must
// be called exactly once per Exchange, before any state is consulted —
// both endpoints of a link see the same epoch number, so both flip the
// link in the same exchange.
func (h *healer) beginEpoch() {
	if !h.active() {
		return
	}
	h.epoch++
	rk := h.c.Obs()
	for p := range h.fellTo {
		if h.fellTo[p] && h.probeTo[p] == h.epoch {
			h.fellTo[p] = false
			h.probingTo[p] = true
			rk.Emit(obs.Event{T: h.c.Now(), Kind: obs.EventRecovery, Label: "probe", Peer: p, Value: -1})
		}
		if h.fellFrom[p] && h.probeFrom[p] == h.epoch {
			h.fellFrom[p] = false
			h.probingFrom[p] = true
		}
	}
}

// report snapshots the cumulative degradation.
func (h *healer) report() Degradation {
	d := Degradation{Repairs: h.repairs, Promotions: h.promotions}
	for p := range h.fellFrom {
		if h.fellFrom[p] || h.fellTo[p] {
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
	for s, fell := range h.fellFrom {
		if fell {
			masked[s] = 0
		}
	}
	return masked
}

// demoteTo moves destination d to the two-sided path and schedules its
// re-promotion probe: a failed probe doubles the wait (capped), a fresh
// demotion starts at the base wait.
func (h *healer) demoteTo(d int) {
	h.fellTo[d] = true
	if h.probingTo[d] {
		h.probingTo[d] = false
		if h.waitTo[d] *= 2; h.waitTo[d] > maxProbeWait {
			h.waitTo[d] = maxProbeWait
		}
	} else {
		h.waitTo[d] = repromoteAfter
	}
	h.probeTo[d] = h.epoch + h.waitTo[d]
}

// demoteFrom is demoteTo for the source direction.
func (h *healer) demoteFrom(s int) {
	h.fellFrom[s] = true
	if h.probingFrom[s] {
		h.probingFrom[s] = false
		if h.waitFrom[s] *= 2; h.waitFrom[s] > maxProbeWait {
			h.waitFrom[s] = maxProbeWait
		}
	} else {
		h.waitFrom[s] = repromoteAfter
	}
	h.probeFrom[s] = h.epoch + h.waitFrom[s]
}

// round runs the post-fence verdict/repair protocol. damaged[s] marks
// sources whose put payload did not survive the epoch (fence report or
// decode failure); putSrc/putDst mark the peers that exchanged puts
// this epoch (fallen-back peers excluded). resend(d) produces the
// lossless payload for a re-fetch demanded by destination d; accept(s,
// data) installs a repaired payload from source s.
//
// The round is deadlock-free by construction: it is send-only until
// every peer's matching send has been issued (simulated sends never
// block), so verdict receives consume step-1 sends and repair receives
// consume step-3 sends.
func (h *healer) round(damaged, putSrc, putDst []bool, resend func(int) []byte, accept func(int, []byte)) {
	// Step 1: tell every put source whether its data survived.
	for s := range putSrc {
		if !putSrc[s] {
			continue
		}
		v := []byte{0}
		if damaged[s] {
			v[0] = 1
		}
		h.c.Send(s, tagVerdict, v)
	}
	// Step 2: learn which destinations demand a resend.
	rk := h.c.Obs()
	var resendTo []int
	for d := range putDst {
		if !putDst[d] {
			continue
		}
		v := h.c.Recv(d, tagVerdict)
		if len(v) != 1 {
			panic(fmt.Sprintf("exchange: verdict from rank %d carried %d bytes, want 1", d, len(v)))
		}
		if v[0] == 0 {
			if h.probingTo[d] {
				// Clean probe epoch: the link earns its fast path back.
				h.probingTo[d] = false
				h.failTo[d] = 0
				h.waitTo[d], h.probeTo[d] = 0, 0
				h.promotions++
				rk.Add(metricRepromotions, 1)
				rk.Emit(obs.Event{T: h.c.Now(), Kind: obs.EventRecovery, Label: "repromote", Peer: d, Value: -1})
			}
			continue
		}
		resendTo = append(resendTo, d)
		if h.failTo[d]++; h.failTo[d] >= fallbackAfter && !h.fellTo[d] {
			h.demoteTo(d)
			rk.Add(metricFallbackPeers, 1)
			rk.Emit(obs.Event{T: h.c.Now(), Kind: obs.EventFallback, Label: "to", Peer: d, Value: float64(h.failTo[d])})
		}
	}
	// Step 3: resend damaged slots over the two-sided path (checksummed
	// and retried by the runtime — this copy arrives intact or fails
	// loudly, never silently corrupt).
	for _, d := range resendTo {
		h.c.Send(d, tagRepair, resend(d))
	}
	// Step 4: install the repaired slots.
	for s := range putSrc {
		if !putSrc[s] || !damaged[s] {
			continue
		}
		accept(s, h.c.Recv(s, tagRepair))
		h.repairs++
		rk.Add(metricRepairs, 1)
		rk.Emit(obs.Event{T: h.c.Now(), Kind: obs.EventRepair, Peer: s, Value: 1})
		if h.failFrom[s]++; h.failFrom[s] >= fallbackAfter && !h.fellFrom[s] {
			h.demoteFrom(s)
			rk.Add(metricFallbackPeers, 1)
			rk.Emit(obs.Event{T: h.c.Now(), Kind: obs.EventFallback, Label: "from", Peer: s, Value: float64(h.failFrom[s])})
		}
	}
	// Clean probe epochs in the source direction promote too (the
	// destination's mirror of the step-2 bookkeeping).
	for s := range putSrc {
		if putSrc[s] && h.probingFrom[s] && !damaged[s] {
			h.probingFrom[s] = false
			h.failFrom[s] = 0
			h.waitFrom[s], h.probeFrom[s] = 0, 0
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
// made without the crash.
func (h *healer) state() []byte {
	p := len(h.failFrom)
	buf := make([]byte, 0, 8+24+p*21)
	var w [8]byte
	u32 := func(v int) {
		binary.LittleEndian.PutUint32(w[:4], uint32(v))
		buf = append(buf, w[:4]...)
	}
	u64 := func(v int64) {
		binary.LittleEndian.PutUint64(w[:8], uint64(v))
		buf = append(buf, w[:8]...)
	}
	u32(ledgerVersion)
	u32(p)
	u32(h.epoch)
	u64(h.repairs)
	u64(h.promotions)
	for i := 0; i < p; i++ {
		u32(h.failFrom[i])
		u32(h.failTo[i])
		var flags byte
		if h.fellFrom[i] {
			flags |= 1
		}
		if h.fellTo[i] {
			flags |= 2
		}
		buf = append(buf, flags)
		u32(h.probeFrom[i])
		u32(h.probeTo[i])
		u32(h.waitFrom[i])
		u32(h.waitTo[i])
	}
	return buf
}

// restore installs a ledger serialized by state.
func (h *healer) restore(data []byte) error {
	p := len(h.failFrom)
	want := 8 + 20 + p*25
	if len(data) != want {
		return fmt.Errorf("exchange: ledger state is %d bytes, want %d", len(data), want)
	}
	pos := 0
	u32 := func() int {
		v := binary.LittleEndian.Uint32(data[pos:])
		pos += 4
		return int(v)
	}
	u64 := func() int64 {
		v := binary.LittleEndian.Uint64(data[pos:])
		pos += 8
		return int64(v)
	}
	if v := u32(); v != ledgerVersion {
		return fmt.Errorf("exchange: ledger version %d, want %d", v, ledgerVersion)
	}
	if n := u32(); n != p {
		return fmt.Errorf("exchange: ledger covers %d peers, exchange has %d", n, p)
	}
	h.epoch = u32()
	h.repairs = u64()
	h.promotions = u64()
	for i := 0; i < p; i++ {
		h.failFrom[i] = u32()
		h.failTo[i] = u32()
		flags := data[pos]
		pos++
		h.fellFrom[i] = flags&1 != 0
		h.fellTo[i] = flags&2 != 0
		h.probingFrom[i], h.probingTo[i] = false, false
		h.probeFrom[i] = u32()
		h.probeTo[i] = u32()
		h.waitFrom[i] = u32()
		h.waitTo[i] = u32()
	}
	return nil
}

// RemapLedgerState rewrites a serialized healer ledger (LedgerState)
// recorded under an old membership onto a shrunken one: oldToNew maps
// each old peer rank to its new local rank (-1 for a dead peer, whose
// record is dropped), and newP is the survivor count. The cumulative
// epoch/repair/promotion counters are preserved — degradation history
// survives the shrink, per-dead-peer state does not. Used by the
// elastic shrink migration (internal/recover, docs/ROBUSTNESS.md).
func RemapLedgerState(data []byte, oldToNew []int, newP int) ([]byte, error) {
	oldP := len(oldToNew)
	want := 8 + 20 + oldP*25
	if len(data) != want {
		return nil, fmt.Errorf("exchange: ledger state is %d bytes, want %d for %d peers", len(data), want, oldP)
	}
	if v := int(binary.LittleEndian.Uint32(data[0:])); v != ledgerVersion {
		return nil, fmt.Errorf("exchange: ledger version %d, want %d", v, ledgerVersion)
	}
	if n := int(binary.LittleEndian.Uint32(data[4:])); n != oldP {
		return nil, fmt.Errorf("exchange: ledger covers %d peers, mapping has %d", n, oldP)
	}
	out := make([]byte, 8+20+newP*25)
	binary.LittleEndian.PutUint32(out[0:], ledgerVersion)
	binary.LittleEndian.PutUint32(out[4:], uint32(newP))
	copy(out[8:28], data[8:28]) // epoch, repairs, promotions
	for old, nw := range oldToNew {
		if nw < 0 {
			continue
		}
		if nw >= newP {
			return nil, fmt.Errorf("exchange: ledger remap sends old peer %d to rank %d of %d", old, nw, newP)
		}
		copy(out[28+nw*25:28+(nw+1)*25], data[28+old*25:28+(old+1)*25])
	}
	return out, nil
}

// f64Bytes encodes values as little-endian float64s — the lossless wire
// format of repair and fallback payloads.
func f64Bytes(vals []float64) []byte {
	out := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
	}
	return out
}

// f64Into decodes a repair/fallback payload into dst, failing loudly on
// a length mismatch (the two-sided path is checksummed, so a mismatch
// is a protocol bug, not line noise).
func f64Into(dst []float64, data []byte, src int) {
	if len(data) != 8*len(dst) {
		panic(fmt.Sprintf("exchange: lossless payload from rank %d carried %d bytes, want %d", src, len(data), 8*len(dst)))
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
	}
}
