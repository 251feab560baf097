package vecops

import (
	"math"
	"math/rand"
	"testing"
)

// fill populates a slice with a deterministic mix of ordinary values and the
// IEEE edge cases (signed zeros, infinities, NaN, denormals) whose bits the
// SIMD paths must reproduce exactly.
func fill(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		switch rng.Intn(10) {
		case 0:
			out[i] = 0
		case 1:
			out[i] = math.Copysign(0, -1)
		case 2:
			out[i] = math.Inf(1 - 2*rng.Intn(2))
		case 3:
			out[i] = math.NaN()
		case 4:
			out[i] = math.Float64frombits(uint64(rng.Intn(100) + 1)) // denormal
		default:
			out[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
		}
	}
	return out
}

// bitsSame compares bit-for-bit, except that any NaN matches any NaN: x86
// NaN propagation keeps the first source operand's payload, and instruction
// operand order is the compiler's choice for commutative ops, so payloads
// are the one bit pattern the package does not pin down (see the doc
// comment). NaN-ness itself and the sign of zeros are fully determined.
func bitsSame(a, b []float64) bool {
	for i := range a {
		if math.IsNaN(a[i]) && math.IsNaN(b[i]) {
			continue
		}
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

var consts = []float64{0, math.Copysign(0, -1), 1, -3.5, 1e-308, 1e300, math.Inf(1), math.NaN()}

func TestSubMulMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= 67; n++ {
		for _, c := range consts {
			dst := fill(rng, n)
			src := fill(rng, n)
			want := append([]float64(nil), dst...)
			if n > 0 {
				subMulGeneric(want, src, c)
			}
			SubMul(dst, src, c)
			if !bitsSame(dst, want) {
				t.Fatalf("SubMul n=%d c=%v diverges from generic", n, c)
			}
		}
	}
}

func TestAddMulMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for n := 0; n <= 67; n++ {
		for _, c := range consts {
			dst := fill(rng, n)
			src := fill(rng, n)
			want := append([]float64(nil), dst...)
			if n > 0 {
				addMulGeneric(want, src, c)
			}
			AddMul(dst, src, c)
			if !bitsSame(dst, want) {
				t.Fatalf("AddMul n=%d c=%v diverges from generic", n, c)
			}
		}
	}
}

func TestDivMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for n := 0; n <= 67; n++ {
		for _, c := range consts {
			dst := fill(rng, n)
			want := append([]float64(nil), dst...)
			if n > 0 {
				divGeneric(want, c)
			}
			Div(dst, c)
			if !bitsSame(dst, want) {
				t.Fatalf("Div n=%d c=%v diverges from generic", n, c)
			}
		}
	}
}

// TestUnalignedOffsets runs the kernels on subslices at every offset of a
// shared backing array: the AVX paths use unaligned loads, and this proves
// neighbouring elements are never touched.
func TestUnalignedOffsets(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	backing := fill(rng, 80)
	src := fill(rng, 80)
	for off := 0; off < 8; off++ {
		for n := 1; n <= 40; n += 7 {
			dst := append([]float64(nil), backing...)
			want := append([]float64(nil), backing...)
			SubMul(dst[off:off+n], src[off:off+n], 1.25)
			subMulGeneric(want[off:off+n], src[off:off+n], 1.25)
			if !bitsSame(dst, want) {
				t.Fatalf("SubMul off=%d n=%d touched out-of-range elements or diverged", off, n)
			}
		}
	}
}

func TestAliasedDstSrc(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	v := fill(rng, 33)
	want := append([]float64(nil), v...)
	subMulGeneric(want, want, 0.5)
	SubMul(v, v, 0.5)
	if !bitsSame(v, want) {
		t.Fatal("SubMul(dst, dst, c) diverges from generic")
	}
}

// TestSubMulRowsMatchesGeneric exercises the fused multi-row kernel against
// per-row generic updates: scattered row indices (including repeats, which
// must accumulate in order), every width class the assembly branches on, and
// the IEEE edge-case values.
func TestSubMulRowsMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, w := range []int{0, 1, 2, 3, 4, 5, 7, 8, 11, 16, 31, 32, 33, 64} {
		for _, nq := range []int{0, 1, 2, 3, 5, 9} {
			nrows := 12
			rows := make([]int32, nq)
			for q := range rows {
				rows[q] = int32(rng.Intn(nrows))
			}
			coef := fill(rng, nq)
			src := fill(rng, w)
			data := fill(rng, nrows*w)
			want := append([]float64(nil), data...)
			if w > 0 {
				for q, r := range rows {
					subMulGeneric(want[int(r)*w:int(r)*w+w], src, coef[q])
				}
			}
			SubMulRows(data, w, rows, coef, src)
			if !bitsSame(data, want) {
				t.Fatalf("SubMulRows w=%d rows=%v diverges from per-row generic", w, rows)
			}
		}
	}
}

// The fused kernel must leave rows it was not given untouched, including the
// row holding src itself when src aliases a row of data.
func TestSubMulRowsAliasedSrcRow(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const w, nrows = 32, 6
	data := fill(rng, nrows*w)
	rows := []int32{4, 1, 3}
	coef := []float64{0.5, -2.25, 1e-3}
	src := data[2*w : 3*w] // row 2, not in rows
	want := append([]float64(nil), data...)
	for q, r := range rows {
		subMulGeneric(want[int(r)*w:int(r)*w+w], want[2*w:3*w], coef[q])
	}
	SubMulRows(data, w, rows, coef, src)
	if !bitsSame(data, want) {
		t.Fatal("SubMulRows with src aliasing an untouched data row diverges from generic")
	}
}

func BenchmarkSubMul32(b *testing.B) {
	dst := make([]float64, 32)
	src := make([]float64, 32)
	for i := range src {
		src[i] = float64(i) + 0.5
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SubMul(dst, src, 1.0000001)
	}
}

func BenchmarkSubMul32Generic(b *testing.B) {
	dst := make([]float64, 32)
	src := make([]float64, 32)
	for i := range src {
		src[i] = float64(i) + 0.5
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		subMulGeneric(dst, src, 1.0000001)
	}
}

func BenchmarkSubMulRows4x32(b *testing.B) {
	data := make([]float64, 8*32)
	src := make([]float64, 32)
	for i := range src {
		src[i] = float64(i) + 0.5
	}
	rows := []int32{1, 3, 4, 6}
	coef := []float64{0.5, 1.5, -0.25, 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SubMulRows(data, 32, rows, coef, src)
	}
}
