package compress

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Property-based sweep of the §IV error contracts: for seeded random
// inputs of random lengths, every method must (a) stay within its
// advertised ErrorBound, (b) produce output DecompressChecked accepts
// and decodes identically to Decompress, and (c) honor its fixed-rate
// size promise. The magnitude window per method keeps the inputs inside
// the target format's normal range, where the relative bounds are
// defined (Cast16's 4.9e-4 holds for fp16 normals, not subnormals).
// Messages holding ±Inf and NaN must pass (b) too, and come back with
// those values in place and the finite ones within the bound.

type propCase struct {
	m Method
	// minExp/maxExp bound the binary exponent of generated magnitudes.
	minExp, maxExp int
	// fixedRate: compressed length must equal MaxCompressedLen exactly.
	fixedRate bool
	// blockRel: the bound is relative to the 4-block max (Block), or the
	// message max (Scaled), instead of per-value.
	blockRel, msgRel bool
	// nonFiniteLost: a known departure. Block quantizes against the
	// block's exponent, which ±Inf and NaN poison: the whole 4-block
	// decodes to finite garbage, with no error. The non-finite check
	// asserts that, so a fix flips it.
	nonFiniteLost bool
}

func propCases() []propCase {
	return []propCase{
		{m: None{}, minExp: -300, maxExp: 300, fixedRate: true},
		{m: Lossless{}, minExp: -300, maxExp: 300},
		{m: Cast32{}, minExp: -100, maxExp: 100, fixedRate: true},
		{m: Cast16{}, minExp: -13, maxExp: 15, fixedRate: true},
		{m: CastBF16{}, minExp: -30, maxExp: 30, fixedRate: true},
		{m: Trim{M: 8}, minExp: -300, maxExp: 300, fixedRate: true},
		{m: Trim{M: 16}, minExp: -300, maxExp: 300, fixedRate: true},
		{m: Trim{M: 40}, minExp: -300, maxExp: 300, fixedRate: true},
		{m: Block{Bits: 12}, minExp: -10, maxExp: 10, fixedRate: true, blockRel: true, nonFiniteLost: true},
		{m: Block{Bits: 20}, minExp: -10, maxExp: 10, fixedRate: true, blockRel: true, nonFiniteLost: true},
		{m: Scaled{Inner: Cast16{}}, minExp: -100, maxExp: 100, msgRel: true},
		{m: Scaled{Inner: Trim{M: 10}}, minExp: -100, maxExp: 100, msgRel: true},
	}
}

// randVals draws values sign·mant·2^exp with mant ∈ [1, 2) and exp
// uniform in [minExp, maxExp], with a sprinkle of exact zeros.
func randVals(rng *rand.Rand, n, minExp, maxExp int) []float64 {
	out := make([]float64, n)
	for i := range out {
		if rng.Intn(16) == 0 {
			continue // exact zero
		}
		mant := 1 + rng.Float64()
		exp := minExp + rng.Intn(maxExp-minExp+1)
		v := math.Ldexp(mant, exp)
		if rng.Intn(2) == 0 {
			v = -v
		}
		out[i] = v
	}
	return out
}

func TestPropertyErrorContracts(t *testing.T) {
	for _, tc := range propCases() {
		t.Run(tc.m.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(hashName(tc.m.Name())))
			for trial := 0; trial < 50; trial++ {
				n := 1 + rng.Intn(300)
				src := randVals(rng, n, tc.minExp, tc.maxExp)
				buf := make([]byte, tc.m.MaxCompressedLen(n))
				wrote := tc.m.Compress(buf, src)
				if wrote > len(buf) {
					t.Fatalf("trial %d: wrote %d > MaxCompressedLen %d", trial, wrote, len(buf))
				}
				if tc.fixedRate && wrote != tc.m.MaxCompressedLen(n) {
					t.Fatalf("trial %d: fixed-rate method wrote %d, want %d", trial, wrote, tc.m.MaxCompressedLen(n))
				}
				got := make([]float64, n)
				if read := tc.m.Decompress(got, buf[:wrote]); read != wrote {
					t.Fatalf("trial %d: Decompress consumed %d of %d bytes", trial, read, wrote)
				}
				checkErrorBound(t, tc, trial, src, got)

				// DecompressChecked must accept everything Compress emits
				// and decode to exactly the same values.
				got2 := make([]float64, n)
				read2, err := tc.m.DecompressChecked(got2, buf[:wrote])
				if err != nil {
					t.Fatalf("trial %d: DecompressChecked rejected Compress output: %v", trial, err)
				}
				if read2 != wrote {
					t.Fatalf("trial %d: DecompressChecked consumed %d of %d bytes", trial, read2, wrote)
				}
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(got2[i]) {
						t.Fatalf("trial %d: Decompress and DecompressChecked disagree at %d: %v vs %v",
							trial, i, got[i], got2[i])
					}
				}
			}
			checkNonFiniteContract(t, tc, rng)
		})
	}
}

// checkNonFiniteContract runs tc's method on messages holding ±Inf and
// NaN: [+Inf, 1, 0.5] and random messages with non-finite values
// planted. DecompressChecked must accept every stream; non-finite
// values must come back in place and the finite ones within the bound
// (relative to the finite peak for Scaled) — or, for Block, decode
// finite, the asserted departure.
func checkNonFiniteContract(t *testing.T, tc propCase, rng *rand.Rand) {
	t.Helper()
	msgs := [][]float64{{math.Inf(1), 1, 0.5}}
	for trial := 0; trial < 10; trial++ {
		src := randVals(rng, 1+rng.Intn(300), tc.minExp, tc.maxExp)
		for k := 0; k < 1+len(src)/16; k++ {
			src[rng.Intn(len(src))] = []float64{math.Inf(1), math.Inf(-1), math.NaN()}[k%3]
		}
		msgs = append(msgs, src)
	}
	for trial, src := range msgs {
		buf := make([]byte, tc.m.MaxCompressedLen(len(src)))
		wrote := tc.m.Compress(buf, src)
		got := make([]float64, len(src))
		if _, err := tc.m.DecompressChecked(got, buf[:wrote]); err != nil {
			t.Fatalf("non-finite trial %d: DecompressChecked rejected Compress output: %v", trial, err)
		}
		finiteSrc, finiteGot := make([]float64, 0, len(src)), make([]float64, 0, len(src))
		for i, v := range src {
			switch {
			case math.IsInf(v, 0) || math.IsNaN(v):
				kept := got[i] == v || math.IsNaN(v) && math.IsNaN(got[i])
				if tc.nonFiniteLost && (kept || math.IsInf(got[i], 0) || math.IsNaN(got[i])) {
					t.Fatalf("non-finite trial %d: %v at %d decoded to %v; the known departure (finite garbage) is gone, update nonFiniteLost",
						trial, v, i, got[i])
				}
				if !tc.nonFiniteLost && !kept {
					t.Fatalf("non-finite trial %d: %v at %d decoded to %v", trial, v, i, got[i])
				}
			case !tc.nonFiniteLost:
				finiteSrc, finiteGot = append(finiteSrc, v), append(finiteGot, got[i])
			}
		}
		checkErrorBound(t, tc, trial, finiteSrc, finiteGot)
	}
}

func checkErrorBound(t *testing.T, tc propCase, trial int, src, got []float64) {
	t.Helper()
	bound := tc.m.ErrorBound()
	switch {
	case bound == 0:
		// None/Lossless: exact round trip, bit for bit.
		for i := range src {
			if math.Float64bits(got[i]) != math.Float64bits(src[i]) {
				t.Fatalf("trial %d: lossless method altered value %d: %v -> %v", trial, i, src[i], got[i])
			}
		}
	case tc.blockRel:
		// Block: the bound is relative to each 4-block's magnitude peak.
		for b := 0; b < len(src); b += 4 {
			end := b + 4
			if end > len(src) {
				end = len(src)
			}
			peak := 0.0
			for _, v := range src[b:end] {
				if a := math.Abs(v); a > peak {
					peak = a
				}
			}
			for i := b; i < end; i++ {
				if err := math.Abs(got[i] - src[i]); err > bound*peak {
					t.Fatalf("trial %d: block value %d error %g exceeds %g·%g", trial, i, err, bound, peak)
				}
			}
		}
	case tc.msgRel:
		// Scaled: normalization makes the bound relative to the message
		// peak (values that underflow the inner format's range after
		// scaling flush to zero, still within bound·peak).
		peak := 0.0
		for _, v := range src {
			if a := math.Abs(v); a > peak {
				peak = a
			}
		}
		for i := range src {
			if err := math.Abs(got[i] - src[i]); err > bound*peak {
				t.Fatalf("trial %d: scaled value %d error %g exceeds %g·%g", trial, i, err, bound, peak)
			}
		}
	default:
		// Per-value relative bound (the §IV casts and mantissa trim).
		for i := range src {
			if err := math.Abs(got[i] - src[i]); err > bound*math.Abs(src[i]) {
				t.Fatalf("trial %d: value %d = %g round-tripped to %g, rel err %g > %g",
					trial, i, src[i], got[i], err/math.Abs(src[i]), bound)
			}
		}
	}
}

// TestPropertyTrimBoundIsTwoToMinusK pins the paper's statement that
// keeping k mantissa bits bounds the relative error by 2^-k — the
// implementation's round-to-nearest bound 2^-(k+1) is strictly tighter.
func TestPropertyTrimBoundIsTwoToMinusK(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, k := range []uint{1, 4, 8, 12, 20, 32, 44, 52} {
		m := Trim{M: k}
		if m.ErrorBound() > math.Ldexp(1, -int(k)) {
			t.Errorf("Trim(%d).ErrorBound() = %g exceeds 2^-%d", k, m.ErrorBound(), k)
		}
		src := randVals(rng, 256, -50, 50)
		buf := make([]byte, m.MaxCompressedLen(len(src)))
		wrote := m.Compress(buf, src)
		got := make([]float64, len(src))
		m.Decompress(got, buf[:wrote])
		coarse := math.Ldexp(1, -int(k))
		for i := range src {
			if err := math.Abs(got[i] - src[i]); err > coarse*math.Abs(src[i]) {
				t.Fatalf("Trim(%d): rel err %g > 2^-%d", k, err/math.Abs(src[i]), k)
			}
		}
	}
}

// hashName derives a stable per-method seed so failures name the method
// and reproduce without cross-method coupling.
func hashName(s string) int64 {
	var h int64 = 1469598103934665603
	for _, c := range s {
		h = (h ^ int64(c)) * 1099511628211
	}
	if h < 0 {
		h = -h
	}
	return h
}

// TestPropertyFromToleranceContract: the method FromTolerance picks
// must itself honor the requested tolerance on random data.
func TestPropertyFromToleranceContract(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, etol := range []float64{1e-2, 1e-3, 1e-5, 1e-8, 1e-12, 0} {
		m := FromTolerance(etol)
		if m.ErrorBound() > etol {
			t.Errorf("FromTolerance(%g) picked %s with bound %g", etol, m.Name(), m.ErrorBound())
		}
		src := randVals(rng, 128, -10, 10)
		buf := make([]byte, m.MaxCompressedLen(len(src)))
		wrote := m.Compress(buf, src)
		got := make([]float64, len(src))
		if _, err := m.DecompressChecked(got, buf[:wrote]); err != nil {
			t.Fatalf("FromTolerance(%g) → %s: checked decode failed: %v", etol, m.Name(), err)
		}
		for i := range src {
			if err := math.Abs(got[i] - src[i]); err > etol*math.Abs(src[i]) {
				t.Fatalf("FromTolerance(%g) → %s: value %d rel err %g",
					etol, m.Name(), i, err/math.Abs(src[i]))
			}
		}
	}
}

var _ = fmt.Sprintf // keep fmt if error paths are compiled out
