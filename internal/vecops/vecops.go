// Package vecops provides the element-wise float64 primitives under the
// blocked multi-RHS panel kernels: dst[i] -= c·src[i], dst[i] += c·src[i],
// and dst[i] /= c over short contiguous lanes (one lane per right-hand side
// of a panel).
//
// Bitwise contract: every implementation — the portable Go loops and the
// amd64 packed-SIMD paths — computes exactly one IEEE-754 multiply rounding
// followed by one add/subtract rounding per element (never a fused
// multiply-add), and one exactly-rounded division per element for Div. Each
// lane is independent; there is no cross-lane reduction whose order could
// differ. Results are therefore bit-for-bit identical across architectures,
// SIMD widths, and the generic fallback — which is what lets the panel
// kernels promise bitwise equality with their scalar per-column
// counterparts. The single exception is the payload of NaN results (x86
// propagates the first source operand's payload and operand order for
// commutative ops is the compiler's choice); whether a result is NaN, and
// the sign of every zero, are fully IEEE-determined and do match. The
// solvers reject non-finite values before any waveform comparison, so NaN
// payloads never reach a bitwise contract.
//
// The slices may overlap only if they are identical; dst and src must have
// equal length (callers slice accordingly — the functions index src by
// len(dst)).
package vecops

// SubMul subtracts c·src from dst element-wise: dst[i] -= c * src[i].
func SubMul(dst, src []float64, c float64) {
	if len(dst) == 0 {
		return
	}
	subMul(dst, src, c)
}

// AddMul adds c·src into dst element-wise: dst[i] += c * src[i].
func AddMul(dst, src []float64, c float64) {
	if len(dst) == 0 {
		return
	}
	addMul(dst, src, c)
}

// Div divides dst element-wise by c: dst[i] /= c.
func Div(dst []float64, c float64) {
	if len(dst) == 0 {
		return
	}
	div(dst, c)
}

// SubMulRows performs, for each q in order, the w-wide update
//
//	data[rows[q]*w : rows[q]*w+w][i] -= coef[q] * src[i]
//
// i.e. a whole column of sparse-triangular updates against one resident
// source row, fused into a single call so the per-row slice construction and
// call dispatch of repeated SubMul calls disappear from the hot path. Each
// (q, i) element follows the same two-rounding contract as SubMul. Row
// indices are int32, the index width of the sparse LU factors.
//
// The caller must guarantee 0 <= rows[q] and rows[q]*w+w <= len(data) for
// every q, len(coef) >= len(rows), and len(src) >= w; the assembly path does
// not bounds-check row indices (the generic path panics as usual).
func SubMulRows(data []float64, w int, rows []int32, coef []float64, src []float64) {
	if w == 0 || len(rows) == 0 {
		return
	}
	_ = coef[len(rows)-1]
	_ = src[w-1]
	subMulRows(data, w, rows, coef, src)
}

// GatherDot returns the sparse-gather inner product Σ_q val[q]·x[idx[q]] —
// the kernel under the Sherman–Morrison–Woodbury capacitance assembly and
// per-column Vᵀy gathers. Unlike the lane-parallel primitives above this is a
// reduction, so to keep the bitwise contract it is defined as the strict
// left-to-right fold on every architecture: one multiply rounding and one add
// rounding per term, in index order, never reassociated or fused. The caller
// must guarantee idx[q] < len(x) and len(val) >= len(idx).
func GatherDot(idx []int, val, x []float64) float64 {
	s := 0.0
	for q, i := range idx {
		s += val[q] * x[i]
	}
	return s
}

// Generic reference implementations; the amd64 build dispatches to packed
// SIMD when the CPU supports it, and every build uses these as the fallback
// and as the test oracle.

func subMulGeneric(dst, src []float64, c float64) {
	_ = src[len(dst)-1]
	for i := range dst {
		dst[i] -= c * src[i]
	}
}

func addMulGeneric(dst, src []float64, c float64) {
	_ = src[len(dst)-1]
	for i := range dst {
		dst[i] += c * src[i]
	}
}

func divGeneric(dst []float64, c float64) {
	for i := range dst {
		dst[i] /= c
	}
}

func subMulRowsGeneric(data []float64, w int, rows []int32, coef []float64, src []float64) {
	s := src[:w]
	for q, r := range rows {
		d := data[int(r)*w : int(r)*w+w]
		c := coef[q]
		for i, v := range s {
			d[i] -= c * v
		}
	}
}
