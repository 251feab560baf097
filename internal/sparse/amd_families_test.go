package sparse_test

import (
	"fmt"
	"testing"

	"opmsim/internal/circuit"
	"opmsim/internal/core"
	"opmsim/internal/netgen"
	"opmsim/internal/sparse"
	"opmsim/internal/waveform"
)

// fillUnder is the factor nonzero count of a under the new→old ordering ord.
func fillUnder(t *testing.T, a *sparse.CSR, ord []int) int {
	t.Helper()
	f, err := sparse.Factor(a.Permute(ord), sparse.Options{NoRCM: true})
	if err != nil {
		t.Fatal(err)
	}
	return f.NNZFactors()
}

// leadingPencil is the uniform-step OPM pencil core.Solve factors for sys.
func leadingPencil(t *testing.T, sys *core.System, m int, T float64) *sparse.CSR {
	t.Helper()
	a, _, err := core.LeadingPencil(sys, m, T)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// rlcLadder is a series R–L line with shunt capacitors, in MNA form (one
// inductor current per section).
func rlcLadder(t *testing.T, sections int) *core.System {
	t.Helper()
	n := circuit.New()
	in := n.Node("in")
	if err := n.AddV("Vin", in, 0, waveform.Step(1, 0)); err != nil {
		t.Fatal(err)
	}
	prev := in
	for i := 1; i <= sections; i++ {
		mid, nd := n.Node(fmt.Sprintf("m%d", i)), n.Node(fmt.Sprintf("n%d", i))
		for _, err := range []error{
			n.AddR(fmt.Sprintf("R%d", i), prev, mid, 2),
			n.AddL(fmt.Sprintf("L%d", i), mid, nd, 1e-9),
			n.AddC(fmt.Sprintf("C%d", i), nd, 0, 1e-12),
		} {
			if err != nil {
				t.Fatal(err)
			}
		}
		prev = nd
	}
	mna, err := n.MNA()
	if err != nil {
		t.Fatal(err)
	}
	return mna.Sys
}

// TestAMDFillNoWorseThanRCMOnCircuitFamilies holds the default pre-ordering
// of Factor to its reason for existing: on the pencils of every generated
// circuit family, AMD fill never exceeds the RCM fill it replaced, and on the
// Table II NA grid it cuts fill to at most 0.65× RCM.
func TestAMDFillNoWorseThanRCMOnCircuitFamilies(t *testing.T) {
	grid, err := netgen.PowerGrid3D(netgen.DefaultPowerGrid())
	if err != nil {
		t.Fatal(err)
	}
	na, err := grid.Netlist.NA()
	if err != nil {
		t.Fatal(err)
	}
	mna, err := grid.Netlist.MNA()
	if err != nil {
		t.Fatal(err)
	}
	ladder, err := netgen.RCLadder(200, 1e3, 1e-12, waveform.Step(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	cfg := netgen.DefaultFractionalLine()
	cfg.Sections = 128
	line, err := netgen.FractionalLine(cfg, waveform.Step(1e-3, 0), waveform.Zero())
	if err != nil {
		t.Fatal(err)
	}
	const m, T = 1000, 10e-9
	families := []struct {
		name    string
		a       *sparse.CSR
		maxFill int // 0: only the RCM bound applies
	}{
		{"power grid NA (Table II)", leadingPencil(t, na.Sys, m, T), 34000},
		{"power grid MNA", leadingPencil(t, mna.Sys, m, T), 0},
		{"RC ladder", leadingPencil(t, ladder.Sys, m, T), 0},
		{"fractional line", leadingPencil(t, line.Sys, 4096, 2.7e-9), 0},
		{"RLC ladder", leadingPencil(t, rlcLadder(t, 150), m, T), 0},
	}
	for _, fam := range families {
		amd, rcm := fillUnder(t, fam.a, sparse.AMD(fam.a)), fillUnder(t, fam.a, sparse.RCM(fam.a))
		t.Logf("%s: n=%d AMD fill %d, RCM fill %d", fam.name, fam.a.R, amd, rcm)
		if amd > rcm {
			t.Errorf("%s: AMD fill %d exceeds RCM fill %d", fam.name, amd, rcm)
		}
		if fam.maxFill > 0 && amd > fam.maxFill {
			t.Errorf("%s: AMD fill %d above %d", fam.name, amd, fam.maxFill)
		}
	}
}
