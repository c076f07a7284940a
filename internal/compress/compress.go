// Package compress implements the message compression methods studied in
// §IV of the paper: truncation casts (FP64→FP32, FP64→FP16, FP64→BF16),
// generalized mantissa trimming with bit packing, a fixed-rate ZFP-like
// block transform coder, and a lossless byte-shuffle/RLE coder used for
// the paper's "fallback to the classical 3-D FFT" extension.
//
// All methods operate on []float64 payloads (a complex value is two
// consecutive float64s) and produce byte streams suitable for the
// all-to-all exchange. Fixed-rate methods (everything except Lossless)
// have a size that depends only on the value count, which the one-sided
// exchange relies on for window layout.
package compress

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/precision"
)

// Method is a (possibly lossy) compressor for float64 payloads.
type Method interface {
	// Name identifies the method in reports ("FP64->FP32" etc.).
	Name() string
	// Ratio is the nominal compression ratio (uncompressed/compressed).
	// Variable-rate methods report 1 (no guarantee).
	Ratio() float64
	// MaxCompressedLen bounds the compressed size in bytes of n values.
	MaxCompressedLen(n int) int
	// Compress encodes src into dst and returns the number of bytes
	// written. dst must have at least MaxCompressedLen(len(src)) bytes.
	Compress(dst []byte, src []float64) int
	// Decompress decodes exactly n values into dst[:n] from src and
	// returns the number of bytes consumed. It assumes well-formed input
	// (panics on truncation); transport boundaries use DecompressChecked.
	Decompress(dst []float64, src []byte) int
	// DecompressChecked is Decompress for untrusted input: truncated or
	// corrupt streams return an error instead of panicking or decoding
	// garbage. On success it behaves exactly like Decompress.
	DecompressChecked(dst []float64, src []byte) (int, error)
	// ErrorBound returns the worst-case relative error introduced per
	// value (0 for lossless), assuming values within the method's range.
	ErrorBound() float64
	// MinNormal returns the smallest positive magnitude the method
	// represents with full relative accuracy: the bottom of the target
	// format's normal range, in input units. Smaller originals underflow
	// to subnormals or zero, where only absolute accuracy is available,
	// so error measurements score them by absolute rather than relative
	// error. Lossless methods return 0.
	MinNormal() float64
}

// None is the identity method: a plain little-endian float64 copy.
type None struct{}

// Name implements Method.
func (None) Name() string { return "FP64" }

// Ratio implements Method.
func (None) Ratio() float64 { return 1 }

// MaxCompressedLen implements Method.
func (None) MaxCompressedLen(n int) int { return 8 * n }

// ErrorBound implements Method.
func (None) ErrorBound() float64 { return 0 }

// MinNormal implements Method.
func (None) MinNormal() float64 { return 0 }

// Compress implements Method.
func (None) Compress(dst []byte, src []float64) int {
	for i, v := range src {
		binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(v))
	}
	return 8 * len(src)
}

// Decompress implements Method.
func (None) Decompress(dst []float64, src []byte) int {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
	return 8 * len(dst)
}

// Cast32 truncates FP64 to FP32 during communication (compression rate 2).
type Cast32 struct{}

// Name implements Method.
func (Cast32) Name() string { return "FP64->FP32" }

// Ratio implements Method.
func (Cast32) Ratio() float64 { return 2 }

// MaxCompressedLen implements Method.
func (Cast32) MaxCompressedLen(n int) int { return 4 * n }

// ErrorBound implements Method.
func (Cast32) ErrorBound() float64 { return 6.0e-8 }

// MinNormal implements Method.
func (Cast32) MinNormal() float64 { return 0x1p-126 } // FP32 Xmin

// Compress implements Method.
func (Cast32) Compress(dst []byte, src []float64) int {
	for i, v := range src {
		binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(float32(v)))
	}
	return 4 * len(src)
}

// Decompress implements Method.
func (Cast32) Decompress(dst []float64, src []byte) int {
	for i := range dst {
		dst[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:])))
	}
	return 4 * len(dst)
}

// Cast16 truncates FP64 to IEEE FP16 (compression rate 4). Values outside
// the FP16 range overflow to ±Inf exactly as a hardware cast would; the
// FFT workloads of the paper keep data well within range.
type Cast16 struct{}

// Name implements Method.
func (Cast16) Name() string { return "FP64->FP16" }

// Ratio implements Method.
func (Cast16) Ratio() float64 { return 4 }

// MaxCompressedLen implements Method.
func (Cast16) MaxCompressedLen(n int) int { return 2 * n }

// ErrorBound implements Method.
func (Cast16) ErrorBound() float64 { return 4.9e-4 }

// MinNormal implements Method.
func (Cast16) MinNormal() float64 { return 0x1p-14 } // FP16 Xmin

// Compress implements Method. Values whose biased exponent lies in
// 1009..1038 (FP16 normals, plus the top binade's round-up to Inf) are
// rounded on the bit pattern in line and rebiased by 1023-15 = 1008;
// the rest take precision.FromFloat64.
func (Cast16) Compress(dst []byte, src []float64) int {
	for i, v := range src {
		b := math.Float64bits(v)
		var h uint16
		if b>>52&0x7ff-1009 < 30 {
			h = uint16(b>>48)&0x8000 | uint16(precision.TrimBits(b, 10)>>42-1008<<10)
		} else {
			h = uint16(precision.FromFloat64(v))
		}
		binary.LittleEndian.PutUint16(dst[2*i:], h)
	}
	return 2 * len(src)
}

// Decompress implements Method. Normal values (exponent field 1..30)
// are rebiased in line; zeros, subnormals, Inf and NaN take
// precision.Float16.Float64.
func (Cast16) Decompress(dst []float64, src []byte) int {
	for i := range dst {
		h := binary.LittleEndian.Uint16(src[2*i:])
		if h>>10&0x1f-1 < 30 {
			dst[i] = math.Float64frombits(uint64(h&0x8000)<<48 | (uint64(h&0x7fff)+1008<<10)<<42)
		} else {
			dst[i] = precision.Float16(h).Float64()
		}
	}
	return 2 * len(dst)
}

// CastBF16 truncates FP64 to bfloat16 (compression rate 4, full FP32
// exponent range, 8-bit mantissa).
type CastBF16 struct{}

// Name implements Method.
func (CastBF16) Name() string { return "FP64->BF16" }

// Ratio implements Method.
func (CastBF16) Ratio() float64 { return 4 }

// MaxCompressedLen implements Method.
func (CastBF16) MaxCompressedLen(n int) int { return 2 * n }

// ErrorBound implements Method.
func (CastBF16) ErrorBound() float64 { return 3.9e-3 }

// MinNormal implements Method.
func (CastBF16) MinNormal() float64 { return 0x1p-126 } // BF16 shares the FP32 exponent range

// Compress implements Method.
func (CastBF16) Compress(dst []byte, src []float64) int {
	for i, v := range src {
		binary.LittleEndian.PutUint16(dst[2*i:], uint16(precision.BFromFloat64(v)))
	}
	return 2 * len(src)
}

// Decompress implements Method.
func (CastBF16) Decompress(dst []float64, src []byte) int {
	for i := range dst {
		dst[i] = precision.BFloat16(binary.LittleEndian.Uint16(src[2*i:])).Float64()
	}
	return 2 * len(dst)
}

// Trim keeps the sign, the full 11-bit exponent, and M mantissa bits of
// each float64, bit-packed to ceil((12+M)/8·n) bytes. It realizes the
// mantissa-trimming sweep of Fig. 2 with an actually reduced wire size.
type Trim struct {
	// M is the number of retained mantissa bits, 0..52.
	M uint
}

// Name implements Method.
func (t Trim) Name() string { return fmt.Sprintf("Trim(%d)", t.M) }

// BitsPerValue returns the packed width of one value.
func (t Trim) BitsPerValue() int { return 12 + int(t.M) }

// Ratio implements Method.
func (t Trim) Ratio() float64 { return 64 / float64(t.BitsPerValue()) }

// MaxCompressedLen implements Method.
func (t Trim) MaxCompressedLen(n int) int {
	return (n*t.BitsPerValue() + 7) / 8
}

// ErrorBound implements Method.
func (t Trim) ErrorBound() float64 { return precision.TrimUnitRoundoff(t.M) }

// MinNormal implements Method: trimming keeps the full FP64 exponent.
func (t Trim) MinNormal() float64 { return 0x1p-1022 }

// Compress implements Method. Widths up to 32 bits (M ≤ 20) round and
// pack in one loop over a local accumulator, storing a 32-bit word
// whenever one fills; wider values go through bitWriter.
func (t Trim) Compress(dst []byte, src []float64) int {
	width := uint(t.BitsPerValue())
	shift := 52 - t.M
	var acc uint64
	var bits uint
	i, n := 0, 0
	for ; width <= 32 && i < len(src); i++ {
		// Layout: sign(1) | exponent(11) | top M mantissa bits.
		acc |= trimBits(math.Float64bits(src[i]), t.M) >> shift << bits
		if bits += width; bits >= 32 {
			binary.LittleEndian.PutUint32(dst[n:], uint32(acc))
			acc >>= 32
			bits -= 32
			n += 4
		}
	}
	w := bitWriter{buf: dst, acc: acc, bits: bits, n: n}
	for ; i < len(src); i++ {
		w.write(trimBits(math.Float64bits(src[i]), t.M)>>shift, width)
	}
	return w.flush()
}

// trimBits is precision.TrimBits for a stream that keeps only the top m
// mantissa bits: a NaN whose payload lies entirely below them gets its
// quiet bit (bit 51) set, so it still decodes as a NaN. With m = 0 the
// stream keeps no mantissa bit, and a NaN decodes as the infinity of
// its sign.
func trimBits(b uint64, m uint) uint64 {
	if b>>52&0x7ff == 0x7ff {
		if b<<12 != 0 && b<<12>>(64-m) == 0 {
			b |= 1 << 51
		}
		return b
	}
	return precision.TrimBits(b, m)
}

// Decompress implements Method. It mirrors Compress: widths up to 32
// bits unpack over a local accumulator while a whole 32-bit word is left
// to load; the stream's last bytes and wider values go through
// bitReader.
func (t Trim) Decompress(dst []float64, src []byte) int {
	width := uint(t.BitsPerValue())
	shift := 52 - t.M
	mask := uint64(1)<<width - 1
	var acc uint64
	var bits uint
	i, n := 0, 0
	for ; width <= 32 && i < len(dst) && (bits >= width || n+4 <= len(src)); i++ {
		if bits < width {
			acc |= uint64(binary.LittleEndian.Uint32(src[n:])) << bits
			bits += 32
			n += 4
		}
		dst[i] = math.Float64frombits(acc & mask << shift)
		acc >>= width
		bits -= width
	}
	r := bitReader{buf: src, acc: acc, bits: bits, n: n}
	for ; i < len(dst); i++ {
		dst[i] = math.Float64frombits(r.read(width) << shift)
	}
	return r.consumed()
}

// bitWriter packs fields of up to 64 bits LSB-first into buf, storing
// one little-endian 32-bit word whenever 32 bits are pending. A field
// must not have bits set above its width.
type bitWriter struct {
	buf  []byte
	acc  uint64
	bits uint // pending bits in acc, < 32 between calls
	n    int
}

func (w *bitWriter) write(v uint64, width uint) {
	if width > 32 {
		// The low 32 bits complete a word store on their own; the
		// rest follows as an ordinary field.
		w.acc |= v & 0xffffffff << w.bits
		binary.LittleEndian.PutUint32(w.buf[w.n:], uint32(w.acc))
		w.n += 4
		w.acc >>= 32
		v >>= 32
		width -= 32
	}
	w.acc |= v << w.bits
	if w.bits += width; w.bits >= 32 {
		binary.LittleEndian.PutUint32(w.buf[w.n:], uint32(w.acc))
		w.n += 4
		w.acc >>= 32
		w.bits -= 32
	}
}

// flush writes the pending bits, zero-padded to a whole byte, and
// returns the stream length ⌈bits/8⌉.
func (w *bitWriter) flush() int {
	for ; w.bits > 0; w.bits -= min(w.bits, 8) {
		w.buf[w.n] = byte(w.acc)
		w.n++
		w.acc >>= 8
	}
	return w.n
}

// bitReader unpacks a bitWriter stream, loading a 32-bit word at a time
// and single bytes only for the last < 4 bytes of buf.
type bitReader struct {
	buf  []byte
	acc  uint64
	bits uint // loaded bits not yet read
	n    int  // bytes loaded
}

// read returns the next field of up to 64 bits; a wider than 32-bit
// one is two fields, low word first, as write stored it.
func (r *bitReader) read(width uint) uint64 {
	if width <= 32 {
		return r.field(width)
	}
	return r.field(32) | r.field(width-32)<<32
}

// field reads a field of at most 32 bits, loading a whole word while
// one is left in buf and single bytes after that.
func (r *bitReader) field(width uint) uint64 {
	for r.bits < width {
		if r.n+4 <= len(r.buf) {
			r.acc |= uint64(binary.LittleEndian.Uint32(r.buf[r.n:])) << r.bits
			r.n += 4
			r.bits += 32
		} else {
			r.acc |= uint64(r.buf[r.n]) << r.bits
			r.n++
			r.bits += 8
		}
	}
	v := r.acc & (1<<width - 1)
	r.acc >>= width
	r.bits -= width
	return v
}

// consumed returns the bytes the fields read so far occupy, ⌈bits/8⌉:
// whole bytes loaded ahead of the last field are not counted.
func (r *bitReader) consumed() int { return r.n - int(r.bits/8) }

// FromTolerance selects the method with the highest compression ratio
// whose worst-case relative error stays at or below etol, following
// §III's error-control contract: the largest compression that still
// meets the user's e_tol. Hardware casts are preferred over bit-packed
// trimming at equal ratio (BF16 over FP16 for its wider range, matching
// the dynamic range FFT spectra develop). etol ≤ 0, or tighter than
// FP64 resolution, selects no compression.
func FromTolerance(etol float64) Method {
	if etol <= 0 {
		return None{}
	}
	switch {
	case etol >= (CastBF16{}).ErrorBound():
		return CastBF16{}
	case etol >= (Cast16{}).ErrorBound():
		return Cast16{}
	}
	// Smallest m with trim unit roundoff 2^-(m+1) ≤ etol.
	m := uint(0)
	for m < 52 && precision.TrimUnitRoundoff(m) > etol {
		m++
	}
	if m >= 52 {
		return None{} // nothing to trim: full FP64 needed
	}
	t := Trim{M: m}
	if t.Ratio() > (Cast32{}).Ratio() {
		return t
	}
	if etol >= (Cast32{}).ErrorBound() {
		return Cast32{}
	}
	return t
}
