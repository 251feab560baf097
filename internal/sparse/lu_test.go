package sparse

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"opmsim/internal/mat"
)

// pivotingSparse is randomSparseSquare with a weak diagonal on every third
// row, so threshold pivoting picks off-diagonal rows and the gather map is a
// genuine composition of pre-ordering and row pivots.
func pivotingSparse(rng *rand.Rand, n int, density float64) *CSR {
	coo := NewCOO(n, n)
	for i := 0; i < n; i++ {
		d := 4 + rng.Float64()
		if i%3 == 0 {
			d = 1e-3 * rng.Float64()
		}
		coo.Add(i, i, d)
		coo.Add(i, (i+1)%n, 1+rng.Float64()) // keep every column pivotable
		for j := 0; j < n; j++ {
			if i != j && rng.Float64() < density {
				coo.Add(i, j, rng.NormFloat64())
			}
		}
	}
	return coo.ToCSR()
}

// namedCSR is one test fixture.
type namedCSR struct {
	name string
	a    *CSR
}

// solvePencils are the layout fixtures: unpivoted and pivoting, below and
// above the pre-ordering threshold, and a mesh.
func solvePencils(rng *rand.Rand) []namedCSR {
	return []namedCSR{
		{"random n=12", randomSparseSquare(rng, 12, 0.2)},
		{"random n=150", randomSparseSquare(rng, 150, 0.03)},
		{"pivoting n=40", pivotingSparse(rng, 40, 0.05)},
		{"pivoting n=200", pivotingSparse(rng, 200, 0.01)},
		{"grid 20x17", gridCSR(20, 17)},
	}
}

// rhsSet returns right-hand sides covering the exact-zero skip regimes:
// dense, leading zeros, and a single nonzero.
func rhsSet(rng *rand.Rand, n int) [][]float64 {
	dense := make([]float64, n)
	lead := make([]float64, n)
	single := make([]float64, n)
	for i := range dense {
		dense[i] = rng.NormFloat64()
		if i >= n/2 {
			lead[i] = rng.NormFloat64()
		}
	}
	single[n/3] = 1
	return [][]float64{dense, lead, single}
}

// referenceSolve is the substitution in the original-row layout the factor
// replaced: L row indices as original rows of A, a row-pivot lookup per
// column, and the pre-ordering applied as a separate permutation sandwich.
// The single kernel must reproduce it bit for bit.
func referenceSolve(f *LU, b []float64) []float64 {
	n := f.n
	work := append([]float64(nil), b...)
	for j := 0; j < n; j++ {
		yj := work[f.gather[j]]
		if isExactZero(yj) {
			continue
		}
		for q := f.lp[j]; q < f.lp[j+1]; q++ {
			work[f.gather[f.li[q]]] -= f.lx[q] * yj
		}
	}
	y := make([]float64, n)
	for j := 0; j < n; j++ {
		y[j] = work[f.gather[j]]
	}
	for j := n - 1; j >= 0; j-- {
		y[j] /= f.udiag[j]
		xj := y[j]
		if isExactZero(xj) {
			continue
		}
		for q := f.up[j]; q < f.up[j+1]; q++ {
			y[f.ui[q]] -= f.ux[q] * xj
		}
	}
	x := make([]float64, n)
	for j, c := range f.scatter {
		x[c] = y[j]
	}
	return x
}

// checkLUIdentities asserts the bitwise contract of the single kernel on
// one factor and right-hand side: Solve == SolveInto == the original-row
// reference, and every column of a panel solve == SolveInto on it.
func checkLUIdentities(t *testing.T, f *Factorization, b []float64) {
	t.Helper()
	n := f.N()
	want, err := f.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, n)
	if err := f.SolveInto(got, b); err != nil {
		t.Fatal(err)
	}
	var ref []float64
	if !f.refine {
		ref = referenceSolve(f.lu, b)
	}
	for i := range want {
		if !bitsEq(got[i], want[i]) {
			t.Fatalf("SolveInto x[%d] = %x, Solve %x", i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
		if ref != nil && !bitsEq(ref[i], want[i]) {
			t.Fatalf("Solve x[%d] = %x, original-row layout %x", i, math.Float64bits(want[i]), math.Float64bits(ref[i]))
		}
	}
	const k = 3
	bp := mat.NewDense(n, k)
	for i := 0; i < n; i++ {
		r := bp.Row(i)
		r[0], r[1], r[2] = b[i], 0, -2*b[i]
	}
	xp := mat.NewDense(n, k)
	if err := f.SolvePanelInto(xp, bp, f.NewPanelScratch(k)); err != nil {
		t.Fatal(err)
	}
	col := make([]float64, n)
	for c := 0; c < k; c++ {
		for i := 0; i < n; i++ {
			col[i] = bp.Row(i)[c]
		}
		if err := f.SolveInto(got, col); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if !bitsEq(xp.Row(i)[c], got[i]) {
				t.Fatalf("panel column %d x[%d] = %x, SolveInto %x", c, i,
					math.Float64bits(xp.Row(i)[c]), math.Float64bits(got[i]))
			}
		}
	}
}

// TestLUSingleKernelBitwise: on random pencils, with and without the AMD
// pre-ordering and refinement, every solve entry point agrees bit for bit.
func TestLUSingleKernelBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, fx := range solvePencils(rng) {
		name, a := fx.name, fx.a
		for _, opt := range []Options{{}, {NoRCM: true}, {Refine: true}, {PivotTol: 1}} {
			f, err := Factor(a, opt)
			if err != nil {
				t.Fatalf("%s %+v: %v", name, opt, err)
			}
			for _, b := range rhsSet(rng, a.R) {
				checkLUIdentities(t, f, b)
			}
		}
	}
}

// TestLUFactorLayout checks the stored layout invariants: L rows sit
// strictly below the diagonal and U rows strictly above it, in pivot
// positions, and both solve maps are permutations.
func TestLUFactorLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, fx := range solvePencils(rng) {
		name, a := fx.name, fx.a
		f, err := Factor(a, Options{})
		if err != nil {
			t.Fatal(err)
		}
		lu := f.lu
		for j := 0; j < lu.n; j++ {
			for q := lu.lp[j]; q < lu.lp[j+1]; q++ {
				if int(lu.li[q]) <= j || int(lu.li[q]) >= lu.n {
					t.Fatalf("%s: L column %d holds row %d", name, j, lu.li[q])
				}
			}
			for q := lu.up[j]; q < lu.up[j+1]; q++ {
				if int(lu.ui[q]) >= j || lu.ui[q] < 0 {
					t.Fatalf("%s: U column %d holds row %d", name, j, lu.ui[q])
				}
			}
		}
		for _, m := range [][]int32{lu.gather, lu.scatter} {
			p := make([]int, len(m))
			for i, v := range m {
				p[i] = int(v)
			}
			checkPermutation(t, p, lu.n)
		}
	}
}

// TestLUSolveTransposeResidual: transposed solves through the composed maps
// stay at roundoff, including under off-diagonal pivoting.
func TestLUSolveTransposeResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, fx := range solvePencils(rng) {
		name, a := fx.name, fx.a
		f, err := Factor(a, Options{})
		if err != nil {
			t.Fatal(err)
		}
		at := a.T()
		for _, b := range rhsSet(rng, a.R) {
			x, err := f.SolveTranspose(b)
			if err != nil {
				t.Fatal(err)
			}
			if e := backwardError(at, x, b); e > 1e-13 {
				t.Fatalf("%s: transposed backward error %.3g", name, e)
			}
		}
	}
}

// backwardError is ‖A·x − b‖∞ / (‖A‖∞·‖x‖∞ + ‖b‖∞).
func backwardError(a *CSR, x, b []float64) float64 {
	r := a.MulVec(x, nil)
	res, xn, bn, an := 0.0, 0.0, 0.0, 0.0
	for i := range r {
		res = math.Max(res, math.Abs(r[i]-b[i]))
		xn = math.Max(xn, math.Abs(x[i]))
		bn = math.Max(bn, math.Abs(b[i]))
		row := 0.0
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			row += math.Abs(a.Val[p])
		}
		an = math.Max(an, row)
	}
	if d := an*xn + bn; d > 0 {
		return res / d
	}
	return res
}

// TestFactorLUTooLarge: a factor that would outgrow its int32 indices fails
// with the typed error instead of wrapping.
func TestFactorLUTooLarge(t *testing.T) {
	saved := maxFactorNNZ
	defer func() { maxFactorNNZ = saved }()
	maxFactorNNZ = 50
	// 49 unknowns fit, their fill does not; 100 unknowns do not fit at all.
	for _, a := range []*CSR{gridCSR(7, 7), gridCSR(10, 10)} {
		if _, err := FactorLU(a, 0.1); !errors.Is(err, ErrTooLarge) {
			t.Fatalf("FactorLU n=%d over the index bound: %v, want ErrTooLarge", a.R, err)
		}
	}
	if _, err := Factor(gridCSR(3, 3), Options{}); err != nil {
		t.Fatalf("factor within the bound failed: %v", err)
	}
}

// TestFactorRejectsNonSquare: the shape check runs before the ordering, so
// a non-square matrix above the AMD threshold is an error, not a panic.
func TestFactorRejectsNonSquare(t *testing.T) {
	coo := NewCOO(70, 80)
	for i := 0; i < 70; i++ {
		coo.Add(i, i, 1)
		coo.Add(i, 79, 1)
	}
	if _, err := Factor(coo.ToCSR(), Options{}); err == nil {
		t.Fatal("Factor accepted a 70x80 matrix")
	}
}

// FuzzFactorLU factors random sparse pencils (sizes straddling the
// pre-ordering threshold, weak or missing diagonals that force pivoting)
// and checks the solution against dense partial-pivoting LU by backward
// error, plus the bitwise Solve / SolveInto / panel identities.
func FuzzFactorLU(f *testing.F) {
	f.Add(uint8(10), uint64(1), uint8(20), uint8(0))
	f.Add(uint8(70), uint64(2), uint8(5), uint8(1))
	f.Add(uint8(120), uint64(3), uint8(3), uint8(2))
	f.Add(uint8(1), uint64(4), uint8(0), uint8(3))
	f.Fuzz(func(t *testing.T, nRaw uint8, seed uint64, densRaw, diagMode uint8) {
		n := 1 + int(nRaw)%150
		rng := rand.New(rand.NewSource(int64(seed)))
		density := float64(densRaw%64) / 256
		coo := NewCOO(n, n)
		for i := 0; i < n; i++ {
			switch diagMode % 4 {
			case 0:
				coo.Add(i, i, 4+rng.Float64())
			case 1:
				coo.Add(i, i, rng.NormFloat64())
			case 2:
				if i%2 == 0 {
					coo.Add(i, i, 1e-3*rng.NormFloat64())
				}
			}
			coo.Add(i, (i+1)%n, 0.5+rng.Float64())
			for j := 0; j < n; j++ {
				if j != i && rng.Float64() < density {
					coo.Add(i, j, rng.NormFloat64())
				}
			}
		}
		a := coo.ToCSR()
		dense, derr := mat.LUFactor(a.ToDense())
		fac, err := Factor(a, Options{})
		if err != nil {
			if errors.Is(err, ErrSingular) {
				return // threshold pivoting may refuse what dense LU accepts
			}
			t.Fatal(err)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := fac.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range x {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return // numerically singular: nothing to compare
			}
		}
		if derr == nil {
			de := backwardError(a, dense.Solve(b), b)
			if se := backwardError(a, x, b); se > 1e-10 && se > 1e4*de {
				t.Fatalf("n=%d: sparse backward error %.3g, dense %.3g", n, se, de)
			}
		}
		checkLUIdentities(t, fac, b)
	})
}

// TestLUShareDetachesScratch: views of one factorization solve concurrently
// through their own work vectors and reproduce the original bit for bit.
func TestLUShareDetachesScratch(t *testing.T) {
	a := gridCSR(12, 12)
	f, err := Factor(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := a.R
	b1 := make([]float64, n)
	b2 := make([]float64, n)
	for i := range b1 {
		b1[i] = float64(i + 1)
		b2[i] = float64(n - i)
	}
	want1, err := f.Solve(b1)
	if err != nil {
		t.Fatal(err)
	}
	want2, err := f.Solve(b2)
	if err != nil {
		t.Fatal(err)
	}
	v1, v2 := f.Share(), f.Share()
	x1 := make([]float64, n)
	x2 := make([]float64, n)
	done := make(chan error, 2)
	solveMany := func(v *Factorization, x, b []float64) {
		var err error
		for trial := 0; trial < 50 && err == nil; trial++ {
			err = v.SolveInto(x, b)
		}
		done <- err
	}
	go solveMany(v1, x1, b1)
	go solveMany(v2, x2, b2)
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	for i := range want1 {
		if !bitsEq(want1[i], x1[i]) || !bitsEq(want2[i], x2[i]) {
			t.Fatalf("concurrent view solves diverged at %d", i)
		}
	}
}
