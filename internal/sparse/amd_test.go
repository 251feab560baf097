package sparse

import (
	"math/rand"
	"testing"
)

// checkPermutation fails unless p is a permutation of 0..n−1.
func checkPermutation(t *testing.T, p []int, n int) {
	t.Helper()
	if len(p) != n {
		t.Fatalf("ordering has %d entries, want %d", len(p), n)
	}
	seen := make([]bool, n)
	for _, v := range p {
		if v < 0 || v >= n || seen[v] {
			t.Fatalf("invalid or repeated entry %d in %v", v, p)
		}
		seen[v] = true
	}
}

// symCOO builds a symmetric pattern with a dominant diagonal from an edge list.
func symCOO(n int, edges [][2]int) *CSR {
	coo := NewCOO(n, n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 8)
	}
	for _, e := range edges {
		coo.Add(e[0], e[1], -1)
		coo.Add(e[1], e[0], -1)
	}
	return coo.ToCSR()
}

// orderedFill is the factor nonzero count under the given new→old ordering.
func orderedFill(t *testing.T, a *CSR, ord []int) int {
	t.Helper()
	f, err := Factor(a.Permute(ord), Options{NoRCM: true})
	if err != nil {
		t.Fatal(err)
	}
	return f.NNZFactors()
}

// TestAMDValidPermutation covers the shapes that exercise the quotient
// graph's edge cases: a single node, tiny systems below the dense cutoff,
// disconnected pieces with empty rows, a dense row that must be postponed,
// and random unsymmetric patterns (symmetrized internally).
func TestAMDValidPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var star [][2]int
	for leaf := 1; leaf < 200; leaf++ {
		star = append(star, [2]int{0, leaf}) // row 0 is dense
	}
	for i := 1; i+1 < 200; i += 2 {
		star = append(star, [2]int{i, i + 1})
	}
	cases := map[string]*CSR{
		"n=1":          symCOO(1, nil),
		"n=2 coupled":  symCOO(2, [][2]int{{0, 1}}),
		"n=5 clique":   symCOO(5, [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 2}, {1, 3}, {1, 4}, {2, 3}, {2, 4}, {3, 4}}),
		"n=40 path":    symCOO(40, pathEdges(0, 40)),
		"disconnected": symCOO(30, append(append(pathEdges(0, 10), pathEdges(12, 20)...), [2]int{25, 27})),
		"empty rows":   NewCOO(17, 17).ToCSR(),
		"dense row":    symCOO(200, star),
		"grid 16x16":   gridCSR(16, 16),
		"random 63":    randomSparseSquare(rng, 63, 0.08),
		"random 300":   randomSparseSquare(rng, 300, 0.02),
	}
	for name, a := range cases {
		t.Run(name, func(t *testing.T) {
			checkPermutation(t, AMD(a), a.R)
		})
	}
}

func pathEdges(lo, hi int) [][2]int {
	var e [][2]int
	for i := lo; i+1 < hi; i++ {
		e = append(e, [2]int{i, i + 1})
	}
	return e
}

// TestAMDDeterministic holds the ordering to a pure function of the pattern:
// repeated runs, and a run on a value-scaled copy, give the same slice.
func TestAMDDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, a := range []*CSR{gridCSR(20, 13), randomSparseSquare(rng, 250, 0.03)} {
		want := AMD(a)
		for r := 0; r < 3; r++ {
			got := AMD(a.Scale(float64(r + 2)))
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("run %d differs at %d: %d vs %d", r, i, got[i], want[i])
				}
			}
		}
	}
}

// TestAMDTreesFillFree checks the classic minimum-degree property: a path
// and a star (once its hub is eliminated last) factor without fill.
func TestAMDTreesFillFree(t *testing.T) {
	var star [][2]int
	for leaf := 1; leaf < 40; leaf++ {
		star = append(star, [2]int{0, leaf})
	}
	for name, a := range map[string]*CSR{
		"path": symCOO(100, pathEdges(0, 100)),
		"star": symCOO(40, star),
	} {
		if fill, nnz := orderedFill(t, a, AMD(a)), a.NNZ(); fill != nnz {
			t.Errorf("%s: AMD fill %d, matrix nnz %d", name, fill, nnz)
		}
	}
}
