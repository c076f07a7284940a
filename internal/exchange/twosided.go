package exchange

import (
	"encoding/binary"

	"repro/internal/mem"
	"repro/internal/mpi"
	"repro/internal/obs"
)

// TwoSided is the classical two-sided all-to-all-v
// (mpi.Comm.AlltoallvLeased) over a fixed sparse pattern. Each
// destination's payload goes out in its slot of a send block, allocated
// by the first exchange and reused under a send-completion lease: a
// slot whose receiver has not released it yet (that rank is still
// reading the last call's payload) is not overwritten, and the payload
// goes out in a fresh buffer instead.
//
// The raw column packs each destination straight into its slot and
// hands each source's bytes back straight from the received packet.
// The codec column compresses everything in one kernel, synchronizes,
// exchanges and decompresses in a second kernel: no §V-B pipeline, by
// design, which isolates the one-sided transport's share of the paper's
// gain in ablations.
type TwoSided struct {
	c *mpi.Comm
	column
	// send and recv are the partners, rank-sorted; a send peer may have
	// Logical > 0 with no real Bytes (the scaled-volume plan can meet a
	// rank the real one does not), which goes out as a phantom message
	// on the raw column.
	send, recv []Peer
	lease      int // send[i]'s slot goes out under lease+i
	block      []byte
	hdr        *Headers
}

// Headers are the P-length arrays an all-to-all-v takes: each
// destination's payload, its lease and its wire bytes, and the sources
// to drain. An exchange fills its peers' entries and clears them again,
// so all the two-sided exchanges of a rank can share one set; it is
// allocated by the first exchange that uses it.
type Headers struct {
	payload     [][]byte
	lease       []int
	logical     []int
	recvNonzero []bool
}

// NewTwoSided builds the exchange of the pattern send / recv with the
// codec column col, sharing hdr (nil: its own).
func NewTwoSided(c *mpi.Comm, send, recv []Peer, col Codec, hdr *Headers) *TwoSided {
	if hdr == nil {
		hdr = &Headers{}
	}
	return &TwoSided{c: c, column: newColumn(col), send: send, recv: recv, lease: c.NewLeases(len(send)), hdr: hdr}
}

// ExchangeWith runs the all-to-all over io: each destination's bytes
// are packed into (raw) or compressed from (codec) io.Send(d), and each
// source's go back through io.Received(s), decompressed into io.Recv(s)
// on the codec column. On the raw column io must pack into the slot it
// is offered: a receiver may read it after this call returns, which the
// slot's lease covers.
func (x *TwoSided) ExchangeWith(io Payloads) {
	c, h := x.c, x.hdr
	if h.payload == nil {
		p := c.Size()
		*h = Headers{make([][]byte, p), make([]int, p), make([]int, p), make([]bool, p)}
	}
	if x.block == nil {
		n := 0
		for _, pe := range x.send {
			n += x.slotBytes(pe.Bytes)
		}
		x.block = mem.Bytes(n)
	}
	var raw, wire int64 // the codec column's volume
	pack := func() {
		at := 0
		for i, pe := range x.send {
			if x.method == nil {
				h.logical[pe.Rank] = pe.Logical // with no Bytes, a phantom message
			}
			if pe.Bytes == 0 {
				continue
			}
			n := x.slotBytes(pe.Bytes)
			buf, lease := c.LeasedBuf(x.lease+i, x.block[at:at+n:at+n])
			at += n
			h.lease[pe.Rank] = lease
			if x.method == nil {
				h.payload[pe.Rank] = sendOf(io, pe.Rank, n, buf)
				continue
			}
			data := encodeSlot(x.method, buf, mem.View[float64](sendOf(io, pe.Rank, pe.Bytes, nil)))
			h.payload[pe.Rank], h.logical[pe.Rank] = data, slotWire(len(data)-4, pe.Bytes/8, pe.Logical/8)
			raw += int64(8 * (pe.Logical / 8))
			wire += int64(h.logical[pe.Rank])
		}
	}
	if x.method == nil {
		pack()
	} else {
		// One compression kernel over the whole send buffer (its volume
		// counts every rank, partner or not), then a full synchronization.
		in, out := 0, (c.Size()-len(x.send))*x.method.MaxCompressedLen(0)
		for _, pe := range x.send {
			in += 8 * (pe.Logical / 8)
			out += x.method.MaxCompressedLen(pe.Logical / 8)
		}
		x.stream.LaunchTagged(obs.PhaseCompress, x.stream.Device().CompressCost(in, out), pack)
		x.stream.Synchronize()
		x.attribute(io, raw, wire)
	}
	for _, pe := range x.recv {
		h.recvNonzero[pe.Rank] = true
	}
	recv := c.AlltoallvLeased(h.payload, h.lease, h.recvNonzero, h.logical)
	for _, pe := range x.send {
		h.payload[pe.Rank], h.lease[pe.Rank], h.logical[pe.Rank] = nil, 0, 0
	}
	for _, pe := range x.recv {
		h.recvNonzero[pe.Rank] = false
	}
	if x.method == nil {
		for _, pe := range x.recv {
			io.Received(pe.Rank, recv[pe.Rank])
		}
	} else {
		x.decode(io, recv)
	}
	c.ReleaseRecv()
}

// attribute records the codec column's epoch volume and, with an event
// log attached, each payload's achieved error: the same per-peer
// attribution the ring reports, so ablations compare stage for stage.
func (x *TwoSided) attribute(io Payloads, raw, wire int64) {
	rk := x.c.Obs()
	x.volume(rk, raw, wire)
	if !rk.EventsOn() {
		return
	}
	for _, pe := range x.send {
		if pe.Bytes > 0 {
			x.slot(rk, x.c.Now(), pe.Rank, x.hdr.payload[pe.Rank], mem.View[float64](sendOf(io, pe.Rank, pe.Bytes, nil)))
		}
	}
	x.achieved(rk, x.c.Now())
}

// decode decompresses the received slots into io in one kernel.
func (x *TwoSided) decode(io Payloads, recv [][]byte) {
	in, out := 0, 0
	for _, pe := range x.recv {
		in += x.method.MaxCompressedLen(pe.Logical / 8)
		out += 8 * (pe.Logical / 8)
	}
	x.stream.LaunchTagged(obs.PhaseDecompress, x.stream.Device().CompressCost(in, out), func() {
		for _, pe := range x.recv {
			slot := recv[pe.Rank]
			dst := io.Recv(pe.Rank)
			x.method.Decompress(mem.View[float64](dst), slot[4:4+binary.LittleEndian.Uint32(slot)])
			io.Received(pe.Rank, dst)
		}
	})
	x.stream.Synchronize()
}
