// rcm.go is NOT on the hot-file list (RCM is no longer on the factor path):
// the identical element-wise shape below must stay silent, or the file gate
// has regressed.
package mat

func bandFill(m *Dense, n int) {
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Set(i, j, m.At(j, i))
		}
	}
}
