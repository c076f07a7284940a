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

// Attach exposes buf through a window created over no memory. A cached
// window may so get its memory from its first epoch instead of at
// creation: puts toward it wait, undelivered, until the fence that
// drains them, so buf must be attached before this rank's first fence.
func (w *Win) Attach(buf []byte) { w.buf = buf }

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
	return w.c.p.SendMsg(target, w.tag, netsim.SendOpts{
		Payload: payload, Bytes: bytes, Meta: offset,
		ProtoOverhead: w.c.Config().RMAOverhead, Unmatched: true,
	})
}

// PutN is PutLogical of a phantom payload: n wire bytes, no data (in
// reliable mode a header-only frame so the fence can still account for
// it).
func (w *Win) PutN(target, offset, n int) (completion float64) {
	return w.PutLogical(target, offset, nil, n)
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
		kind, srcs := "corrupt", rep.Corrupt
		if len(srcs) == 0 {
			kind, srcs = "lost", rep.Missing
		}
		outstanding := append(append([]int(nil), rep.Corrupt...), rep.Missing...)
		panic(w.c.noteFault(&FaultError{Rank: w.c.Rank(), Src: srcs[0], Tag: w.tag, Kind: kind, Op: "fence",
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
	var drained int64
	var rep FenceReport
	if !w.c.reliable {
		// One drain closes the epoch; each put that carries data is placed.
		n := 0
		for _, cnt := range expected {
			n += cnt
		}
		var recs []netsim.PutRecord
		recs, drained = w.c.p.DrainPuts(w.tag, n)
		for _, r := range recs {
			w.place(r.Offset, r.Payload)
		}
	}
	for src, cnt := range expected {
		if !w.c.reliable || cnt == 0 {
			continue
		}
		corrupt, missing := w.drainReliable(src, cnt, &drained)
		if corrupt {
			rep.Corrupt = append(rep.Corrupt, src)
		}
		if missing {
			rep.Missing = append(rep.Missing, src)
		}
	}
	clear(w.puts)
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
func (w *Win) drainReliable(src, cnt int, drained *int64) (corrupt, missing bool) {
	epoch := uint32(w.fenced)
	seen := make([]bool, cnt)
	deadline := w.c.deadline()
	for got := 0; got < cnt; {
		pkt, ok := w.c.p.RecvDeadline(src, w.tag, deadline)
		if !ok {
			missing = true
			break
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
