package main

import (
	"math/rand/v2"
	"strconv"
	"strings"
)

// Input generation. Every deck is SPICE text built from a seeded PCG stream,
// so the same seed yields byte-identical decks and the program under test
// sees nothing but the text. Seeds move component values, load placement
// and source timing; they never move the structure (node and card counts),
// so the cost of an op does not depend on the seed.

// newRNG returns the PCG stream for one (seed, purpose) pair.
func newRNG(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15^stream))
}

// jitter returns v scaled by a uniform factor in [1−frac, 1+frac].
func jitter(rng *rand.Rand, v, frac float64) float64 {
	return v * (1 + frac*(2*rng.Float64()-1))
}

// deckWriter accumulates cards with exact (round-trip) value formatting.
type deckWriter struct {
	b     strings.Builder
	cards int
}

func (w *deckWriter) line(s string) { w.b.WriteString(s); w.b.WriteByte('\n') }

// card writes "name a b v1 v2 ..." and counts it as an element card.
func (w *deckWriter) card(name, a, b string, vals ...float64) {
	w.b.WriteString(name)
	w.b.WriteByte(' ')
	w.b.WriteString(a)
	w.b.WriteByte(' ')
	w.b.WriteString(b)
	for _, v := range vals {
		w.b.WriteByte(' ')
		w.b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	}
	w.b.WriteByte('\n')
	w.cards++
}

// pulse writes a current-source card driving PULSE(0 peak td tr tr pw).
func (w *deckWriter) pulse(name, a, b string, peak, td, tr, pw float64) {
	w.b.WriteString(name + " " + a + " " + b + " PULSE(0")
	for _, v := range []float64{peak, td, tr, tr, pw} {
		w.b.WriteByte(' ')
		w.b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	}
	w.b.WriteString(")\n")
	w.cards++
}

// gridSpec is the 3-D power-grid structure of the paper's §V-B (netgen's
// PowerGrid3D): a resistor mesh per layer, inductive vias between layers,
// a capacitor at every node, top-layer pads every padPitch nodes and pulsed
// current loads on the bottom layer.
type gridSpec struct {
	layers, rows, cols int
	loads              int
	padPitch           int
}

// tableIIGrid is netgen.DefaultPowerGrid: 3×16×16, 32 loads (NA n=768).
var tableIIGrid = gridSpec{layers: 3, rows: 16, cols: 16, loads: 32, padPitch: 4}

// largeGrid mirrors netgen.PowerGridN(n): 3 layers over a square plane of
// ceil(sqrt(n/3)) nodes a side, side²/8 loads.
func largeGrid(n int) gridSpec {
	side := 2
	for 3*side*side < n {
		side++
	}
	return gridSpec{layers: 3, rows: side, cols: side, loads: side * side / 8, padPitch: 4}
}

func gridNode(l, r, c int) string {
	return "n" + strconv.Itoa(l) + "_" + strconv.Itoa(r) + "_" + strconv.Itoa(c)
}

// probes names the observed nodes: each layer's centre and far corner.
func (g gridSpec) probes() []string {
	var p []string
	for l := 0; l < g.layers; l++ {
		p = append(p, gridNode(l, g.rows/2, g.cols/2), gridNode(l, g.rows-1, g.cols-1))
	}
	return p
}

// gridDeck renders one seeded instance of g over [0, T). Nominal values are
// netgen.DefaultPowerGrid's; each component is jittered by ±10 %, loads are
// placed uniformly on the bottom layer with staggered delays.
func gridDeck(title string, g gridSpec, T, h float64, rng *rand.Rand) (string, int) {
	var w deckWriter
	w.line(title)
	for l := 0; l < g.layers; l++ {
		for r := 0; r < g.rows; r++ {
			for c := 0; c < g.cols; c++ {
				if c+1 < g.cols {
					w.card("Rh"+strconv.Itoa(l)+"_"+strconv.Itoa(r)+"_"+strconv.Itoa(c), gridNode(l, r, c), gridNode(l, r, c+1), jitter(rng, 0.05, 0.1))
				}
				if r+1 < g.rows {
					w.card("Rv"+strconv.Itoa(l)+"_"+strconv.Itoa(r)+"_"+strconv.Itoa(c), gridNode(l, r, c), gridNode(l, r+1, c), jitter(rng, 0.05, 0.1))
				}
			}
		}
	}
	for l := 0; l+1 < g.layers; l++ {
		for r := 0; r < g.rows; r++ {
			for c := 0; c < g.cols; c++ {
				w.card("Lv"+strconv.Itoa(l)+"_"+strconv.Itoa(r)+"_"+strconv.Itoa(c), gridNode(l, r, c), gridNode(l+1, r, c), jitter(rng, 5e-12, 0.1))
			}
		}
	}
	for l := 0; l < g.layers; l++ {
		for r := 0; r < g.rows; r++ {
			for c := 0; c < g.cols; c++ {
				w.card("C"+strconv.Itoa(l)+"_"+strconv.Itoa(r)+"_"+strconv.Itoa(c), gridNode(l, r, c), "0", jitter(rng, 50e-15, 0.1))
			}
		}
	}
	for r := 0; r < g.rows; r += g.padPitch {
		for c := 0; c < g.cols; c += g.padPitch {
			w.card("Rpad"+strconv.Itoa(r)+"_"+strconv.Itoa(c), gridNode(0, r, c), "0", jitter(rng, 0.01, 0.1))
		}
	}
	bottom := g.layers - 1
	for i := 0; i < g.loads; i++ {
		r, c := rng.IntN(g.rows), rng.IntN(g.cols)
		w.pulse("Iload"+strconv.Itoa(i), gridNode(bottom, r, c), "0",
			jitter(rng, 5e-3, 0.2), 0.5e-9*(1+0.5*rng.Float64()), 0.2e-9, 2e-9)
	}
	w.line(".tran " + strconv.FormatFloat(h, 'g', -1, 64) + " " + strconv.FormatFloat(T, 'g', -1, 64))
	w.line(".end")
	return w.b.String(), w.cards
}

// ladderDeck renders a ladder of `sections` nodes v1..vN chained by series
// resistors, each node tied to ground by a constant-phase element of order
// alpha (netgen.FractionalLine's structure) — or, for alpha = 1, by a plain
// capacitor — terminated at both ends and driven by pulsed currents into
// the two end nodes. Values are jittered by ±10 %.
func ladderDeck(title string, sections int, alpha, T float64, rng *rand.Rand) (string, int) {
	var w deckWriter
	w.line(title)
	first, last := "v1", "v"+strconv.Itoa(sections)
	// Pulses sized to the span: rise T/40, width T/4, staggered starts.
	w.pulse("Iin1", "0", first, jitter(rng, 1e-3, 0.2), T*(0.02+0.05*rng.Float64()), T/40, T/4)
	w.pulse("Iin2", "0", last, jitter(rng, 0.5e-3, 0.2), T*(0.3+0.1*rng.Float64()), T/40, T/4)
	for i := 1; i < sections; i++ {
		w.card("Rs"+strconv.Itoa(i), "v"+strconv.Itoa(i), "v"+strconv.Itoa(i+1), jitter(rng, 50, 0.1))
	}
	for i := 1; i <= sections; i++ {
		if alpha == 1 {
			w.card("C"+strconv.Itoa(i), "v"+strconv.Itoa(i), "0", jitter(rng, 0.8e-12, 0.1))
		} else {
			w.card("P"+strconv.Itoa(i), "v"+strconv.Itoa(i), "0", jitter(rng, 0.8e-9, 0.1), alpha)
		}
	}
	w.card("Rt1", first, "0", jitter(rng, 50, 0.1))
	w.card("Rt2", last, "0", jitter(rng, 50, 0.1))
	w.line(".end")
	return w.b.String(), w.cards
}
