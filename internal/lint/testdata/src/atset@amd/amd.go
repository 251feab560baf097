// fixturepath: fixture/internal/mat
//
// Variant fixture for the AMD watchlist entry: amd.go joined the atset
// hot-file list (the ordering runs on every scalar-tier and BBD-domain
// factorization), so element-wise At/Set in nested loops fires in it exactly
// as in dense.go; the sibling rcm.go in this package proves the file gate.
package mat

type Dense struct {
	data []float64
	cols int
}

func (m *Dense) At(i, j int) float64     { return m.data[i*m.cols+j] }
func (m *Dense) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }
func (m *Dense) Row(i int) []float64     { return m.data[i*m.cols : (i+1)*m.cols] }

// markPattern is the offending shape: stamping an elimination pattern
// element-wise instead of through row views.
func markPattern(pattern *Dense, n int) {
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			pattern.Set(i, j, pattern.At(j, i)) // want "element-wise pattern.Set" "element-wise pattern.At"
		}
	}
}

// markPatternRows is the approved idiom.
func markPatternRows(pattern *Dense, n int) {
	for i := 0; i < n; i++ {
		row := pattern.Row(i)
		for j := range row {
			row[j] = 1
		}
	}
}
