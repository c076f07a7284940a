package compress

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"repro/internal/precision"
)

// Reference kernels: the byte-at-a-time bit packer, Trim rounding
// through a float64 round trip, and Cast16 through precision.FromFloat64
// and Float16.Float64, as they were before the word-at-a-time kernels.
// The fast kernels must match them byte for byte on encode and bit for
// bit on decode.

type refBitWriter struct {
	buf  []byte
	acc  uint64
	bits uint
	n    int
}

func (w *refBitWriter) write(v uint64, width uint) {
	if width > 32 {
		w.write(v&0xffffffff, 32)
		w.write(v>>32, width-32)
		return
	}
	w.acc |= v << w.bits
	w.bits += width
	for w.bits >= 8 {
		w.buf[w.n] = byte(w.acc)
		w.n++
		w.acc >>= 8
		w.bits -= 8
	}
}

func (w *refBitWriter) flush() int {
	if w.bits > 0 {
		w.buf[w.n] = byte(w.acc)
		w.n++
		w.acc = 0
		w.bits = 0
	}
	return w.n
}

type refBitReader struct {
	buf  []byte
	acc  uint64
	bits uint
	n    int
}

func (r *refBitReader) read(width uint) uint64 {
	if width > 32 {
		lo := r.read(32)
		hi := r.read(width - 32)
		return lo | hi<<32
	}
	for r.bits < width {
		r.acc |= uint64(r.buf[r.n]) << r.bits
		r.n++
		r.bits += 8
	}
	v := r.acc & (1<<width - 1)
	r.acc >>= width
	r.bits -= width
	return v
}

func (r *refBitReader) consumed() int { return r.n }

// refTrimFloat64 rounds x to m mantissa bits on a float64 round trip.
// Inf and NaN keep their bits, except that a NaN whose payload lies
// entirely below the top m mantissa bits (m ≥ 1) gets its quiet bit
// set, so it survives the trim as a NaN.
func refTrimFloat64(x float64, m uint) float64 {
	if m >= 52 {
		return x
	}
	b := math.Float64bits(x)
	exp := b >> 52 & 0x7ff
	if exp == 0x7ff {
		mant := b & (1<<52 - 1)
		if m >= 1 && mant != 0 && mant>>(52-m) == 0 {
			return math.Float64frombits(b | 1<<51)
		}
		return x
	}
	shift := 52 - m
	mask := uint64(1)<<shift - 1
	rem := b & mask
	b &^= mask
	half := uint64(1) << (shift - 1)
	if rem > half || (rem == half && b>>shift&1 == 1) {
		b += 1 << shift
	}
	return math.Float64frombits(b)
}

type refTrim struct{ Trim }

func (t refTrim) Compress(dst []byte, src []float64) int {
	w := refBitWriter{buf: dst}
	width := uint(t.BitsPerValue())
	shift := 52 - t.M
	for _, v := range src {
		w.write(math.Float64bits(refTrimFloat64(v, t.M))>>shift, width)
	}
	return w.flush()
}

func (t refTrim) Decompress(dst []float64, src []byte) int {
	r := refBitReader{buf: src}
	width := uint(t.BitsPerValue())
	shift := 52 - t.M
	for i := range dst {
		dst[i] = math.Float64frombits(r.read(width) << shift)
	}
	return r.consumed()
}

type refCast16 struct{ Cast16 }

func (refCast16) Compress(dst []byte, src []float64) int {
	for i, v := range src {
		binary.LittleEndian.PutUint16(dst[2*i:], uint16(precision.FromFloat64(v)))
	}
	return 2 * len(src)
}

func (refCast16) Decompress(dst []float64, src []byte) int {
	for i := range dst {
		dst[i] = precision.Float16(binary.LittleEndian.Uint16(src[2*i:])).Float64()
	}
	return 2 * len(dst)
}

// refScaled is Scaled with a fresh scaled copy per call. Its scale is
// the largest finite magnitude's, capped at 2¹⁰²³.
type refScaled struct{ Scaled }

func (s refScaled) Compress(dst []byte, src []float64) int {
	maxAbs := 0.0
	for _, v := range src {
		if a := math.Abs(v); a > maxAbs && !math.IsInf(a, 0) {
			maxAbs = a
		}
	}
	scale := 1.0
	if maxAbs > 0 {
		scale = math.Ldexp(1, -ilogb(maxAbs))
		if math.IsInf(scale, 0) {
			scale = 0x1p1023 // a subnormal peak
		}
	}
	binary.LittleEndian.PutUint64(dst, math.Float64bits(scale))
	scaled := make([]float64, len(src))
	for i, v := range src {
		scaled[i] = v * scale
	}
	return 8 + s.Inner.Compress(dst[8:], scaled)
}

// codecSpecials are the values each fast path must hand off or round
// exactly like the reference: non-finite, signed zeros, subnormals, the
// FP64 extremes and the FP16 boundaries and ties.
var codecSpecials = []float64{
	math.NaN(), math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff8000000000fff),
	math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -0x1p-1060, 0x1p-1022 - 0x1p-1074, 0x1p-1022,
	math.MaxFloat64, -math.MaxFloat64, 0x1.fffffp1023,
	65504, -65504, 65519, 65519.99, 65520, 65536, 1e6,
	0x1p-14, -0x1p-14, 0x1p-14 - 0x1p-25, 0x1p-14 - 0x1p-26, 0x1.ffcp-15,
	0x1p-24, 0x1p-25, 0x1.8p-25, 0x1p-26, 0x1.8p-24,
	1, -1, 1 + 0x1p-11, 1 + 3*0x1p-11, -(1 + 3*0x1p-11), 0x1.003p0, 1.5, 3, 6,
}

// codecInput returns n values: codecSpecials, random bit patterns,
// FP16-range values and FP16 ties in turn.
func codecInput(rng *rand.Rand, n int) []float64 {
	src := make([]float64, n)
	for i := range src {
		switch i % 4 {
		case 0:
			src[i] = codecSpecials[rng.Intn(len(codecSpecials))]
		case 1:
			src[i] = math.Float64frombits(rng.Uint64())
		case 2:
			src[i] = math.Ldexp(1+rng.Float64(), rng.Intn(44)-27)
		default:
			b := uint64(rng.Intn(2))<<63 | uint64(1009+rng.Intn(30))<<52 | rng.Uint64()&(0x3ff<<42) | 1<<41
			src[i] = math.Float64frombits(b)
		}
	}
	return src
}

// withTrimTies returns a copy of src with every third value moved onto
// an exact tie of Trim(m).
func withTrimTies(src []float64, m uint) []float64 {
	out := append([]float64(nil), src...)
	if m >= 52 {
		return out
	}
	shift := 52 - m
	for i := 1; i < len(out); i += 3 {
		b := math.Float64bits(out[i])&^(1<<shift-1) | 1<<(shift-1)
		out[i] = math.Float64frombits(b)
	}
	return out
}

// codecLengths end on every byte and word phase of the packed stream.
var codecLengths = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1001}

// checkMatches encodes src with got and want into sentinel-filled
// buffers and requires identical lengths and buffers (no stray bytes
// past the stream either), then decodes the reference stream with both,
// exactly as long and with spare bytes after it, and requires the same
// bits and the same consumed count. The checked decoder must accept the
// stream and agree, and non-finite inputs must come back in place
// (checkNonFinite).
func checkMatches(t testing.TB, got, want Method, src []float64) {
	t.Helper()
	size := want.MaxCompressedLen(len(src)) + 8
	gb, wb := bytes.Repeat([]byte{0xa5}, size), bytes.Repeat([]byte{0xa5}, size)
	gn, wn := got.Compress(gb, src), want.Compress(wb, src)
	if gn != wn || !bytes.Equal(gb, wb) {
		for i := range gb {
			if gb[i] != wb[i] {
				t.Fatalf("%s, %d values: encode differs from the reference at byte %d (%#02x vs %#02x; %d vs %d bytes)",
					got.Name(), len(src), i, gb[i], wb[i], gn, wn)
			}
		}
		t.Fatalf("%s, %d values: encoded %d bytes, reference %d", got.Name(), len(src), gn, wn)
	}
	gd, wd := make([]float64, len(src)), make([]float64, len(src))
	for _, stream := range [][]byte{wb[:wn], wb[:wn+8]} {
		gu, wu := got.Decompress(gd, stream), want.Decompress(wd, stream)
		if gu != wu || gu != wn {
			t.Fatalf("%s, %d values, %d-byte input: decode consumed %d bytes, reference %d, stream %d",
				got.Name(), len(src), len(stream), gu, wu, wn)
		}
		sameBits(t, got.Name()+" decode", gd, wd)
		checkNonFinite(t, got, src, gd)
		cu, err := got.DecompressChecked(gd, stream)
		if _, werr := want.DecompressChecked(make([]float64, len(src)), stream); err != nil || werr != nil {
			t.Fatalf("%s, %d values: checked decode rejected the codec's own stream: %v (reference: %v)", got.Name(), len(src), err, werr)
		}
		if cu != wu {
			t.Fatalf("%s, %d values: checked decode consumed %d bytes, reference %d", got.Name(), len(src), cu, wu)
		}
		sameBits(t, got.Name()+" checked decode", gd, wd)
	}
}

// checkNonFinite requires every ±Inf of src to decode to the same
// infinity and every NaN to a NaN. Trim(0) keeps no mantissa bit, so it
// turns every NaN into the infinity of its sign: a known departure,
// asserted so that a fix flips it.
func checkNonFinite(t testing.TB, m Method, src, got []float64) {
	t.Helper()
	for i, v := range src {
		want := v
		if tr, ok := m.(Trim); ok && tr.M == 0 && math.IsNaN(v) {
			want = math.Copysign(math.Inf(1), v)
		}
		if math.IsInf(want, 0) && got[i] != want || math.IsNaN(want) && !math.IsNaN(got[i]) {
			t.Fatalf("%s, %d values: value %d (%#016x) decoded to %v, want %v",
				m.Name(), len(src), i, math.Float64bits(v), got[i], want)
		}
	}
}

func sameBits(t testing.TB, what string, got, want []float64) {
	t.Helper()
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s of %d values: value %d is %#016x, reference %#016x",
				what, len(got), i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

func TestCodecsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, n := range codecLengths {
		src := codecInput(rng, n)
		for m := uint(0); m <= 52; m++ {
			checkMatches(t, Trim{M: m}, refTrim{Trim{M: m}}, withTrimTies(src, m))
		}
		checkMatches(t, Cast16{}, refCast16{}, src)
		checkMatches(t, Scaled{Inner: Cast16{}}, refScaled{Scaled{Inner: refCast16{}}}, src)
	}
}

// TestCast16MatchesReferenceOnEveryHalf decodes all 65536 FP16 bit
// patterns and re-encodes each decoded value.
func TestCast16MatchesReferenceOnEveryHalf(t *testing.T) {
	src := make([]byte, 1<<17)
	for h := 0; h < 1<<16; h++ {
		binary.LittleEndian.PutUint16(src[2*h:], uint16(h))
	}
	got, want := make([]float64, 1<<16), make([]float64, 1<<16)
	Cast16{}.Decompress(got, src)
	refCast16{}.Decompress(want, src)
	sameBits(t, "Cast16 decode of every half", got, want)
	checkMatches(t, Cast16{}, refCast16{}, want)
}

func TestBitPackerMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		fields := rng.Intn(40)
		vals, widths := make([]uint64, fields), make([]uint, fields)
		total := 0
		for i := range vals {
			widths[i] = 1 + uint(rng.Intn(64))
			if trial%2 == 0 {
				widths[i] = 1 + uint(rng.Intn(8)) // the embedded coder's short fields
			}
			vals[i] = rng.Uint64() >> (64 - widths[i])
			total += int(widths[i])
		}
		size := (total+7)/8 + 8
		gb, wb := bytes.Repeat([]byte{0xa5}, size), bytes.Repeat([]byte{0xa5}, size)
		w, rw := bitWriter{buf: gb}, refBitWriter{buf: wb}
		for i, v := range vals {
			w.write(v, widths[i])
			rw.write(v, widths[i])
		}
		gn, wn := w.flush(), rw.flush()
		if gn != wn || !bytes.Equal(gb, wb) {
			t.Fatalf("trial %d: packed %d bytes %x, reference %d bytes %x", trial, gn, gb, wn, wb)
		}
		for _, stream := range [][]byte{wb[:wn], wb} {
			r, rr := bitReader{buf: stream}, refBitReader{buf: stream}
			for i, v := range vals {
				if got, want := r.read(widths[i]), rr.read(widths[i]); got != v || want != v {
					t.Fatalf("trial %d field %d (width %d): read %#x, reference %#x, wrote %#x", trial, i, widths[i], got, want, v)
				}
			}
			if r.consumed() != rr.consumed() {
				t.Fatalf("trial %d: consumed %d bytes, reference %d", trial, r.consumed(), rr.consumed())
			}
		}
	}
}

// blockStreamsDigest hashes Block and Block3D encodings and decodings
// over fixed inputs: every stream byte and every decoded value's bits.
func blockStreamsDigest() string {
	h := sha256.New()
	put := func(enc []byte, dec []float64) {
		h.Write(enc)
		for _, v := range dec {
			binary.Write(h, binary.LittleEndian, math.Float64bits(v))
		}
	}
	rng := rand.New(rand.NewSource(3))
	for _, bits := range []uint{1, 2, 8, 16, 26, 30} {
		m := Block{Bits: bits}
		for _, n := range codecLengths {
			src := randVals(rng, n, -20, 20)
			if n > 8 {
				copy(src[4:8], []float64{0, 0, 0, 0})
			}
			enc := make([]byte, m.MaxCompressedLen(n))
			dec := make([]float64, n)
			m.Decompress(dec, enc[:m.Compress(enc, src)])
			put(enc, dec)
		}
	}
	for _, bits := range []uint{1, 5, 12, 24, 30} {
		m := Block3D{Bits: bits}
		for _, dims := range [][3]int{{1, 1, 1}, {4, 4, 4}, {5, 3, 7}, {9, 9, 9}} {
			for _, src := range [][]float64{smoothField3D(dims, 1), randomField3D(dims, 2), make([]float64, dims[0]*dims[1]*dims[2])} {
				enc := make([]byte, m.MaxCompressedLen(dims))
				dec := make([]float64, len(src))
				m.Decompress(dec, enc[:m.Compress(enc, src, dims)], dims)
				put(enc, dec)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestBlockStreamsUnchanged holds Block and Block3D, which share the
// bit packer, to the digest their streams had under the reference
// packer.
func TestBlockStreamsUnchanged(t *testing.T) {
	const want = "2ebdd04834f30331a1fd9fb317bc36a9cc526ca44457d97876116d4146212ec3"
	if got := blockStreamsDigest(); got != want {
		t.Errorf("Block/Block3D stream digest %s, reference %s", got, want)
	}
}

func FuzzCodecMatchesReference(f *testing.F) {
	seed := make([]byte, 8*len(codecSpecials))
	for i, v := range codecSpecials {
		binary.LittleEndian.PutUint64(seed[8*i:], math.Float64bits(v))
	}
	f.Add(seed, uint8(19))
	f.Add(seed[:8*7], uint8(10))
	f.Add([]byte{}, uint8(52))
	// Non-finite messages: a finite peak beside ±Inf (Scaled once wrote
	// a zero scale header for them), NaNs alone, and a subnormal peak
	// (once an infinite header).
	for _, vals := range [][]float64{
		{math.Inf(1), 1, 0.5},
		{math.Inf(-1), math.NaN(), 3e5, -2},
		{math.NaN(), math.Float64frombits(0x7ff0000000000001)},
		{math.Inf(1), math.SmallestNonzeroFloat64, -0x1p-1060},
	} {
		b := make([]byte, 8*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		f.Add(b, uint8(0))
		f.Add(b, uint8(23))
	}
	f.Fuzz(func(t *testing.T, data []byte, m uint8) {
		src := make([]float64, len(data)/8)
		for i := range src {
			src[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		trim := Trim{M: uint(m) % 53}
		checkMatches(t, trim, refTrim{trim}, src)
		checkMatches(t, Cast16{}, refCast16{}, src)
		checkMatches(t, Scaled{Inner: Cast16{}}, refScaled{Scaled{Inner: refCast16{}}}, src)
	})
}
