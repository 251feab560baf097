package sparse

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when factorization cannot find a usable pivot.
var ErrSingular = errors.New("sparse: matrix is singular")

// ErrTooLarge is returned when a factor would hold more nonzeros than its
// int32 index arrays can address.
var ErrTooLarge = errors.New("sparse: factor exceeds the int32 index range")

// maxFactorNNZ bounds the nonzeros of one triangular factor (a variable so
// tests can exercise the guard without a 2³¹-entry factor).
var maxFactorNNZ = math.MaxInt32

// LU is a sparse LU factorization P·A·Q = L·U produced by the left-looking
// Gilbert–Peierls algorithm with threshold partial pivoting, where Q is the
// symmetric pre-ordering Factor applies (the identity for FactorLU) and P
// composes it with the row pivots. L is unit lower triangular (unit diagonal
// implicit) and U upper triangular, both stored by column with int32 row
// indices in pivot positions, so both substitution sweeps index one dense
// vector directly.
//
// Single layout, single kernel: a solve gathers b through gather (pivot
// position → original row), sweeps L forward and U backward in place, and
// scatters through scatter (pivot position → original column). Relabelling
// L's rows from original rows to pivot positions only renames the slots the
// updates land in: within one column every update touches a distinct row,
// and columns run in the same pivot order with the same exact-zero skips, so
// results are bitwise-identical to sweeping the original-row layout through
// a perm[] lookup per column.
type LU struct {
	n int

	lp []int32 // L column pointers (len n+1)
	li []int32 // L row indices (pivot positions, strictly below diagonal)
	lx []float64

	up    []int32 // U column pointers (len n+1)
	ui    []int32 // U row indices (pivot positions, strictly above diagonal)
	ux    []float64
	udiag []float64 // U diagonal (the pivots)

	gather  []int32 // pivot position → original row of A
	scatter []int32 // pivot position → original column of A

	work []float64 // SolveInto substitution scratch, lazily sized
}

// FactorLU factors the square sparse matrix a with pivot threshold tol in
// (0, 1]: at each column the natural (diagonal) row is kept as pivot when its
// magnitude is at least tol times the column maximum, which preserves
// sparsity on the diagonally dominant matrices circuits produce; tol = 1
// degenerates to full partial pivoting. It fails with ErrTooLarge rather than
// overflow its int32 indices.
func FactorLU(a *CSR, tol float64) (*LU, error) {
	n := a.R
	if a.C != n {
		return nil, fmt.Errorf("sparse: FactorLU of non-square %dx%d matrix", a.R, a.C)
	}
	if tol <= 0 || tol > 1 {
		return nil, fmt.Errorf("sparse: pivot threshold %g outside (0,1]", tol)
	}
	if n > maxFactorNNZ {
		return nil, fmt.Errorf("%w: dimension %d", ErrTooLarge, n)
	}
	at := a.T() // CSC view: at row i holds column i of a.

	f := &LU{
		n:     n,
		lp:    make([]int32, 1, n+1),
		up:    make([]int32, 1, n+1),
		udiag: make([]float64, n),
	}
	// During elimination L's row indices are original rows; perm/pinv map
	// between them and pivot positions until the final relabelling.
	perm := make([]int, n) // pivot position -> original row
	pinv := make([]int, n) // original row -> pivot position
	for i := range pinv {
		pinv[i] = -1
	}

	x := make([]float64, n)       // dense accumulator, indexed by original row
	touched := make([]int, 0, 64) // original rows with (potentially) nonzero x
	mark := make([]int, n)        // touch stamps for rows
	for i := range mark {
		mark[i] = -1
	}
	cmark := make([]int, n) // DFS stamps for columns
	for i := range cmark {
		cmark[i] = -1
	}
	dfsStack := make([]int, 0, 64)
	posStack := make([]int, 0, 64)
	topo := make([]int, 0, 64)

	for j := 0; j < n; j++ {
		// --- Symbolic: reach of A(:,j) through the columns of L built so far.
		topo = topo[:0]
		for p := at.RowPtr[j]; p < at.RowPtr[j+1]; p++ {
			c := pinv[at.ColIdx[p]]
			if c < 0 || cmark[c] == j {
				continue
			}
			// Iterative DFS from column c; reverse post-order is prepended
			// by collecting post-order then reversing at the end.
			dfsStack = append(dfsStack[:0], c)
			posStack = append(posStack[:0], int(f.lp[c]))
			cmark[c] = j
			for len(dfsStack) > 0 {
				top := len(dfsStack) - 1
				k := dfsStack[top]
				advanced := false
				for q := posStack[top]; q < int(f.lp[k+1]); q++ {
					child := pinv[f.li[q]]
					if child >= 0 && cmark[child] != j {
						cmark[child] = j
						posStack[top] = q + 1
						dfsStack = append(dfsStack, child)
						posStack = append(posStack, int(f.lp[child]))
						advanced = true
						break
					}
				}
				if !advanced {
					dfsStack = dfsStack[:top]
					posStack = posStack[:top]
					topo = append(topo, k) // post-order
				}
			}
		}
		// Reverse post-order = topological order (ancestors first).
		for lo, hi := 0, len(topo)-1; lo < hi; lo, hi = lo+1, hi-1 {
			topo[lo], topo[hi] = topo[hi], topo[lo]
		}

		// --- Numeric: scatter A(:,j), then eliminate along topo order.
		touched = touched[:0]
		for p := at.RowPtr[j]; p < at.RowPtr[j+1]; p++ {
			r := at.ColIdx[p]
			if mark[r] != j {
				mark[r] = j
				x[r] = 0
				touched = append(touched, r)
			}
			x[r] += at.Val[p]
		}
		for _, k := range topo {
			pr := perm[k]
			if mark[pr] != j {
				mark[pr] = j
				x[pr] = 0
				touched = append(touched, pr)
			}
			xk := x[pr]
			if isExactZero(xk) {
				continue
			}
			for q := f.lp[k]; q < f.lp[k+1]; q++ {
				r := f.li[q]
				if mark[r] != j {
					mark[r] = j
					x[r] = 0
					touched = append(touched, int(r))
				}
				x[r] -= f.lx[q] * xk
			}
		}

		// --- Pivot: choose among unpivoted touched rows.
		pivRow, maxAbs := -1, 0.0
		diagOK := false
		var diagVal float64
		for _, r := range touched {
			if pinv[r] >= 0 {
				continue
			}
			if a := math.Abs(x[r]); a > maxAbs {
				maxAbs, pivRow = a, r
			}
			if r == j {
				diagOK, diagVal = true, x[r]
			}
		}
		if pivRow < 0 || isExactZero(maxAbs) {
			return nil, fmt.Errorf("%w: no pivot for column %d", ErrSingular, j)
		}
		if diagOK && math.Abs(diagVal) >= tol*maxAbs && !isExactZero(diagVal) {
			pivRow = j
		}
		pivVal := x[pivRow]
		perm[j] = pivRow
		pinv[pivRow] = j
		f.udiag[j] = pivVal

		// --- Store U(:,j) (pivoted rows) and L(:,j) (unpivoted rows).
		for _, k := range topo {
			v := x[perm[k]]
			if !isExactZero(v) && k != j {
				f.ui = append(f.ui, int32(k))
				f.ux = append(f.ux, v)
			}
		}
		for _, r := range touched {
			if pinv[r] >= 0 || r == pivRow {
				continue
			}
			if v := x[r]; !isExactZero(v) {
				f.li = append(f.li, int32(r))
				f.lx = append(f.lx, v/pivVal)
			}
		}
		if len(f.li) > maxFactorNNZ || len(f.ui) > maxFactorNNZ {
			return nil, fmt.Errorf("%w: more than %d factor nonzeros at column %d", ErrTooLarge, maxFactorNNZ, j)
		}
		f.lp = append(f.lp, int32(len(f.li)))
		f.up = append(f.up, int32(len(f.ui)))
	}

	// Final layout: L rows in pivot positions, gather = row pivots, scatter
	// = identity (Factor composes its pre-ordering into both).
	for q, r := range f.li {
		f.li[q] = int32(pinv[r])
	}
	f.gather = make([]int32, n)
	f.scatter = make([]int32, n)
	for j, r := range perm {
		f.gather[j] = int32(r)
		f.scatter[j] = int32(j)
	}
	return f, nil
}

// preorder composes a symmetric pre-ordering (new → old, the factored matrix
// being A(ord, ord)) into the gather and scatter maps, so solves take the
// original right-hand side and return the original unknowns directly.
func (f *LU) preorder(ord []int) {
	for j, r := range f.gather {
		f.gather[j] = int32(ord[r])
		f.scatter[j] = int32(ord[j])
	}
}

// N returns the factored dimension.
func (f *LU) N() int { return f.n }

// NNZ returns the total stored nonzeros in L and U (including pivots).
func (f *LU) NNZ() int { return len(f.lx) + len(f.ux) + f.n }

// Solve solves A·x = b and returns a newly allocated solution vector; b is
// not modified. It rejects a right-hand side of the wrong length instead of
// panicking so callers can surface the failure as a diagnostic.
func (f *LU) Solve(b []float64) ([]float64, error) {
	if len(b) != f.n {
		return nil, fmt.Errorf("sparse: LU Solve length %d != %d", len(b), f.n)
	}
	x := make([]float64, f.n)
	f.solve(x, b, make([]float64, f.n))
	return x, nil
}

// SolveInto solves A·x = b into x (len n each) using scratch kept on the
// factorization, so steady-state solves allocate nothing. It runs the same
// kernel as Solve — the two entry points produce bitwise-identical results —
// but the retained scratch makes an LU unsafe for concurrent SolveInto calls.
func (f *LU) SolveInto(x, b []float64) error {
	if len(b) != f.n || len(x) != f.n {
		return fmt.Errorf("sparse: LU SolveInto lengths %d,%d != %d", len(x), len(b), f.n)
	}
	if f.work == nil {
		f.work = make([]float64, f.n)
	}
	f.solve(x, b, f.work)
	return nil
}

// solve is the substitution kernel behind Solve and SolveInto: gather b into
// pivot order, sweep L forward and U backward in w, scatter w into x.
func (f *LU) solve(x, b, w []float64) {
	for j, r := range f.gather {
		w[j] = b[r]
	}
	// Forward: L y = P b, column by column in pivot order.
	for j := 0; j < f.n; j++ {
		yj := w[j]
		if isExactZero(yj) {
			continue
		}
		rows := f.li[f.lp[j]:f.lp[j+1]]
		coef := f.lx[f.lp[j]:f.lp[j+1]]
		coef = coef[:len(rows)]
		for q, r := range rows {
			w[r] -= coef[q] * yj
		}
	}
	// Backward: U z = y, descending.
	for j := f.n - 1; j >= 0; j-- {
		w[j] /= f.udiag[j]
		xj := w[j]
		if isExactZero(xj) {
			continue
		}
		rows := f.ui[f.up[j]:f.up[j+1]]
		coef := f.ux[f.up[j]:f.up[j+1]]
		coef = coef[:len(rows)]
		for q, r := range rows {
			w[r] -= coef[q] * xj
		}
	}
	for j, c := range f.scatter {
		x[c] = w[j]
	}
}

// SolveTranspose solves Aᵀ·x = b. With P·A·Q = L·U, Aᵀ = Q·Uᵀ·Lᵀ·P, so the
// sweep gathers through the column map, runs a forward substitution with Uᵀ
// (lower triangular in pivot coordinates) and a backward substitution with
// the unit-diagonal Lᵀ, and scatters through the row map. It exists for the
// 1-norm condition estimator, which needs solves against both A and Aᵀ.
func (f *LU) SolveTranspose(b []float64) ([]float64, error) {
	if len(b) != f.n {
		return nil, fmt.Errorf("sparse: LU SolveTranspose length %d != %d", len(b), f.n)
	}
	z := make([]float64, f.n)
	for j, c := range f.scatter {
		z[j] = b[c]
	}
	// Uᵀ z = b: column j of U lists the strictly-above-diagonal rows of
	// column j, i.e. the sub-diagonal entries of row j of Uᵀ.
	for j := 0; j < f.n; j++ {
		s := z[j]
		for q := f.up[j]; q < f.up[j+1]; q++ {
			s -= f.ux[q] * z[f.ui[q]]
		}
		z[j] = s / f.udiag[j]
	}
	// Lᵀ w = z in place: rows of Lᵀ below j sit at pivot positions > j,
	// already final when j is processed in descending order.
	for j := f.n - 1; j >= 0; j-- {
		s := z[j]
		for q := f.lp[j]; q < f.lp[j+1]; q++ {
			s -= f.lx[q] * z[f.li[q]]
		}
		z[j] = s
	}
	x := make([]float64, f.n)
	for j, r := range f.gather {
		x[r] = z[j]
	}
	return x, nil
}

// Options configures Factor.
type Options struct {
	// PivotTol is the threshold-pivoting tolerance in (0, 1]; 0 selects the
	// default 0.1.
	PivotTol float64
	// NoRCM disables the fill-reducing pre-ordering (approximate minimum
	// degree; the field predates AMD and keeps its name), for callers that
	// order the matrix themselves.
	NoRCM bool
	// Refine enables one step of iterative refinement per solve.
	Refine bool
}

// amdMinN is the dimension below which Factor skips the pre-ordering: such
// systems factor in microseconds and their fill cannot repay the ordering.
const amdMinN = 64

// Factorization couples a sparse LU (with its fill-reducing pre-ordering
// composed into the solve maps) with optional iterative refinement against
// the original matrix.
type Factorization struct {
	lu     *LU
	a      *CSR // original matrix (for refinement)
	refine bool

	// SolveInto refinement scratch, lazily sized; see the concurrency note.
	rwork []float64 // refinement residual
	dwork []float64 // refinement correction
}

// Factor computes a ready-to-solve factorization of the square matrix a,
// ordered by AMD (see amd.go) unless opt.NoRCM is set or a is smaller than
// 64×64.
func Factor(a *CSR, opt Options) (*Factorization, error) {
	tol := opt.PivotTol
	if isExactZero(tol) {
		tol = 0.1
	}
	if a.R != a.C {
		return nil, fmt.Errorf("sparse: Factor of non-square %dx%d matrix", a.R, a.C)
	}
	var ord []int
	work := a
	if !opt.NoRCM && a.R >= amdMinN {
		ord = AMD(a)
		work = a.Permute(ord)
	}
	lu, err := FactorLU(work, tol)
	if err != nil {
		return nil, err
	}
	if ord != nil {
		lu.preorder(ord)
	}
	return &Factorization{lu: lu, a: a, refine: opt.Refine}, nil
}

// N returns the system dimension.
func (f *Factorization) N() int { return f.lu.n }

// NNZFactors returns the nonzeros stored in the LU factors.
func (f *Factorization) NNZFactors() int { return f.lu.NNZ() }

// Solve solves A·x = b without modifying b. It returns an error when b has
// the wrong length for the factored system.
func (f *Factorization) Solve(b []float64) ([]float64, error) {
	if len(b) != f.lu.n {
		return nil, fmt.Errorf("sparse: Solve right-hand side length %d != %d", len(b), f.lu.n)
	}
	x, err := f.lu.Solve(b)
	if err != nil {
		return nil, err
	}
	if f.refine {
		// One refinement step: r = b − A·x, x += A⁻¹ r.
		r := f.a.MulVec(x, nil)
		for i := range r {
			r[i] = b[i] - r[i]
		}
		d, err := f.lu.Solve(r)
		if err != nil {
			return nil, err
		}
		for i := range x {
			x[i] += d[i]
		}
	}
	return x, nil
}

// SolveInto solves A·x = b into x (len N() each; x must not alias b)
// without modifying b, reusing scratch kept on the factorization so
// steady-state solves allocate nothing. The arithmetic — including the
// optional refinement step — runs in exactly the order Solve uses, so the
// two entry points produce bitwise-identical results; the retained scratch
// makes a Factorization unsafe for concurrent SolveInto calls.
func (f *Factorization) SolveInto(x, b []float64) error {
	n := f.lu.n
	if len(b) != n || len(x) != n {
		return fmt.Errorf("sparse: SolveInto lengths %d,%d != %d", len(x), len(b), n)
	}
	if err := f.lu.SolveInto(x, b); err != nil {
		return err
	}
	if f.refine {
		// One refinement step: r = b − A·x, x += A⁻¹ r.
		if f.rwork == nil {
			f.rwork = make([]float64, n)
			f.dwork = make([]float64, n)
		}
		r := f.a.MulVec(x, f.rwork)
		for i := range r {
			r[i] = b[i] - r[i]
		}
		if err := f.lu.SolveInto(f.dwork, r); err != nil {
			return err
		}
		for i := range x {
			x[i] += f.dwork[i]
		}
	}
	return nil
}

// SolveTranspose solves Aᵀ·x = b without modifying b (no refinement).
func (f *Factorization) SolveTranspose(b []float64) ([]float64, error) {
	if len(b) != f.lu.n {
		return nil, fmt.Errorf("sparse: SolveTranspose right-hand side length %d != %d", len(b), f.lu.n)
	}
	return f.lu.SolveTranspose(b)
}

// Cond1Est estimates the 1-norm condition number κ₁(A) = ‖A‖₁·‖A⁻¹‖₁ with
// Hager's power-style iteration on ‖A⁻¹‖₁ (the LAPACK xLACON scheme, a
// handful of solves against A and Aᵀ). The estimate is a lower bound that is
// almost always within a small factor of the truth — enough to route a
// factorization down the fallback chain. It returns +Inf when the triangular
// solves overflow, which is itself a reliable ill-conditioning signal.
func (f *Factorization) Cond1Est() float64 {
	n := f.lu.n
	if n == 0 {
		return 0
	}
	if n == 1 {
		d := f.lu.udiag[0]
		if isExactZero(d) {
			return math.Inf(1)
		}
		return math.Abs(f.a.Norm1() / d)
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = 1 / float64(n)
	}
	xi := make([]float64, n) // sign vector, fully overwritten each iteration
	est := 0.0
	prev := -1
	for iter := 0; iter < 5; iter++ {
		y, err := f.lu.Solve(x)
		if err != nil {
			return math.Inf(1)
		}
		est = 0
		for _, v := range y {
			est += math.Abs(v)
		}
		if math.IsNaN(est) || math.IsInf(est, 0) {
			return math.Inf(1)
		}
		// ξ = sign(y); z = A⁻ᵀ·ξ.
		for i, v := range y {
			if v >= 0 {
				xi[i] = 1
			} else {
				xi[i] = -1
			}
		}
		z, err := f.lu.SolveTranspose(xi)
		if err != nil {
			return math.Inf(1)
		}
		j, zmax := 0, 0.0
		for i, v := range z {
			if a := math.Abs(v); a > zmax {
				zmax, j = a, i
			}
		}
		zdotx := 0.0
		for i := range z {
			zdotx += z[i] * x[i]
		}
		if zmax <= math.Abs(zdotx) || j == prev {
			break
		}
		for i := range x {
			x[i] = 0
		}
		x[j] = 1
		prev = j
	}
	return f.a.Norm1() * est
}
