package mpi

import (
	"fmt"

	"repro/internal/netsim"
	"repro/internal/obs"
)

// Metric names of the one-sided runtime (constants so the hot paths
// record without allocating).
const (
	metricPuts      = "mpi/puts"
	metricPutBytes  = "mpi/put_bytes"
	metricFences    = "mpi/fences"
	metricWinCreate = "mpi/win_create"
	metricWinReuse  = "mpi/win_reuse"
)

// Win is a one-sided communication window exposing a byte buffer to
// remote Put operations, as used by the OSC all-to-all of §V. Creation
// is a collective with a fixed setup cost; the paper's window-caching
// optimization corresponds to reusing one Win across many exchanges.
type Win struct {
	c   *Comm
	id  int
	buf []byte
	tag int
	// puts counts the put packets this rank has issued toward each
	// target in the current epoch (diagnostics).
	puts []int
	// fenced counts completed epochs; every fence after the first is a
	// window-cache hit (the reuse the §V-A caching optimization buys).
	fenced int
}

// WinCreate collectively creates a window over buf. All ranks must call
// it in matching order. The returned window can (and should) be cached:
// creation costs a barrier plus a fixed registration overhead per rank.
func (c *Comm) WinCreate(buf []byte) *Win {
	id := c.nextWinID
	c.nextWinID++
	c.Elapse(c.winCreateCost)
	c.Barrier()
	c.obs.Add(metricWinCreate, 1)
	return &Win{c: c, id: id, buf: buf, tag: tagWinBase + id, puts: make([]int, c.Size())}
}

// Buffer returns the window's exposed memory.
func (w *Win) Buffer() []byte { return w.buf }

// PutLogical copies data into the target rank's window at the given byte
// offset, one-sided: the target takes no action until its next Fence.
// data must stay untouched until the epoch ends (GPU-direct zero-copy,
// like MPI_Win_put from device memory). PutLogical returns at injection
// time; the returned completion time is when the data is resident at
// the target, usable for flush-style waits.
//
// logical is the size charged for timing — the scaled-volume mode of
// the experiment harness charges transfer time as if the payload were
// larger (see DESIGN.md); data placement uses the real bytes. In
// reliable mode the payload is wrapped in an [epoch|idx|crc] frame (see
// reliable.go) so the fence can discard stale duplicates and detect
// silent corruption.
func (w *Win) PutLogical(target, offset int, data []byte, logical int) (completion float64) {
	idx := w.puts[target]
	w.puts[target]++
	w.c.obs.Add(metricPuts, 1)
	w.c.obs.Add(metricPutBytes, int64(logical))
	payload, bytes := data, logical
	if w.c.reliable {
		payload = putFrame(uint32(w.fenced), uint32(idx), data)
		bytes += putHdr
	}
	return w.c.sendMsg(target, w.tag, netsim.SendOpts{
		Payload: payload, Bytes: bytes, Meta: offset,
		ProtoOverhead: w.c.Config().RMAOverhead, Unmatched: true,
	})
}

// PutN is the phantom variant of PutLogical: n logical bytes, no payload (in
// reliable mode a header-only frame so the fence can still account for
// it).
func (w *Win) PutN(target, offset, n int) (completion float64) {
	idx := w.puts[target]
	w.puts[target]++
	w.c.obs.Add(metricPuts, 1)
	w.c.obs.Add(metricPutBytes, int64(n))
	var payload []byte
	bytes := n
	if w.c.reliable {
		payload = putFrame(uint32(w.fenced), uint32(idx), nil)
		bytes += putHdr
	}
	return w.c.sendMsg(target, w.tag, netsim.SendOpts{
		Payload: payload, Bytes: bytes, Meta: offset,
		ProtoOverhead: w.c.Config().RMAOverhead, Unmatched: true,
	})
}

// Fence closes an access epoch: it drains the expected put packets into
// the window buffer (expected[src] = number of puts rank src issued
// toward this rank this epoch; nil means none) and then synchronizes all
// ranks. The expected counts are structural knowledge of the algorithm
// using the window — exactly what a real implementation derives from its
// communication schedule. In reliable mode a fence that detects corrupt
// or missing puts panics with a *FaultError; callers that want to repair
// instead use FenceChecked.
func (w *Win) Fence(expected []int) {
	rep := w.FenceChecked(expected)
	if !rep.OK() {
		src := -1
		kind := "corrupt"
		if len(rep.Corrupt) > 0 {
			src = rep.Corrupt[0]
		} else {
			src = rep.Missing[0]
			kind = "lost"
		}
		outstanding := make([]int, 0, len(rep.Corrupt)+len(rep.Missing))
		for _, r := range append(append([]int(nil), rep.Corrupt...), rep.Missing...) {
			outstanding = append(outstanding, w.c.glob(r))
		}
		panic(w.c.noteFault(&FaultError{Rank: w.c.GlobalRank(), Src: w.c.glob(src), Tag: w.tag, Kind: kind, Op: "fence",
			When: w.c.Now(), Outstanding: outstanding}))
	}
}

// FenceReport lists the peers whose puts did not survive an epoch:
// Corrupt holds sources with at least one checksum-failed payload,
// Missing sources with at least one put that never arrived (watchdog
// expired). Both empty means the epoch's data is intact.
type FenceReport struct {
	Corrupt []int
	Missing []int
}

// OK reports whether the epoch closed with all puts intact.
func (r FenceReport) OK() bool { return len(r.Corrupt) == 0 && len(r.Missing) == 0 }

// FenceChecked is Fence returning a per-peer damage report instead of
// panicking, so callers (the self-healing exchanges) can re-fetch the
// affected blocks over the lossless two-sided path. Without a fault
// plan it is identical to the plain fence and always reports OK.
func (w *Win) FenceChecked(expected []int) FenceReport {
	w.c.obs.Begin(obs.TrackHost, obs.PhaseFence, w.c.Now())
	latest := w.c.Now()
	var drained int64
	var rep FenceReport
	if expected != nil {
		for src, cnt := range expected {
			if cnt == 0 {
				continue
			}
			if w.c.reliable {
				corrupt, missing := w.drainReliable(src, cnt, &latest, &drained)
				if corrupt {
					rep.Corrupt = append(rep.Corrupt, src)
				}
				if missing {
					rep.Missing = append(rep.Missing, src)
				}
				continue
			}
			for i := 0; i < cnt; i++ {
				pkt := w.c.recvInternal(src, w.tag)
				if pkt.Arrival > latest {
					latest = pkt.Arrival
				}
				drained += int64(pkt.Bytes)
				if pkt.Payload != nil {
					w.place(pkt.Meta, pkt.Payload)
				}
			}
		}
	}
	w.c.AdvanceTo(latest)
	for i := range w.puts {
		w.puts[i] = 0
	}
	w.c.Barrier()
	w.c.p.CountFence()
	w.c.obs.Add(metricFences, 1)
	if w.fenced++; w.fenced > 1 {
		w.c.obs.Add(metricWinReuse, 1)
	}
	w.c.obs.End(w.c.Now(), drained)
	return rep
}

// place copies a put payload into the window, failing loudly on an
// out-of-range offset instead of silently truncating (copy would) or
// panicking with a bare slice error.
func (w *Win) place(offset int, data []byte) {
	if offset < 0 || offset+len(data) > len(w.buf) {
		panic(fmt.Sprintf("mpi: put of %d bytes at offset %d overflows %d-byte window %d on rank %d",
			len(data), offset, len(w.buf), w.id, w.c.Rank()))
	}
	copy(w.buf[offset:], data)
}

// drainReliable receives rank src's cnt framed puts of the current
// epoch: stale duplicates from earlier epochs are skipped, duplicate
// indices within the epoch discarded, checksum failures and off-window
// offsets counted as corrupt, and a watchdog expiry as missing.
func (w *Win) drainReliable(src, cnt int, latest *float64, drained *int64) (corrupt, missing bool) {
	epoch := uint32(w.fenced)
	seen := make([]bool, cnt)
	deadline := w.c.deadline()
	for got := 0; got < cnt; {
		pkt, ok := w.c.recvPktDeadline(src, w.tag, deadline)
		if !ok {
			missing = true
			break
		}
		if pkt.Arrival > *latest {
			*latest = pkt.Arrival
		}
		e, idx, data, okf := deframePut(pkt.Payload)
		if !okf {
			// Header or payload failed the checksum; the frame's epoch and
			// index are untrustworthy, so it consumes one expected slot.
			corrupt = true
			got++
			*drained += int64(pkt.Bytes)
			continue
		}
		if e != epoch {
			w.c.discards++
			continue // stale duplicate of an earlier epoch
		}
		if int(idx) >= cnt {
			corrupt = true
			got++
			continue
		}
		if seen[idx] {
			w.c.discards++
			continue // duplicate delivery within this epoch
		}
		seen[idx] = true
		got++
		w.c.noteProgress()
		*drained += int64(pkt.Bytes)
		if data != nil {
			if pkt.Meta < 0 || pkt.Meta+len(data) > len(w.buf) {
				corrupt = true
				continue
			}
			copy(w.buf[pkt.Meta:], data)
		}
	}
	return corrupt, missing
}
