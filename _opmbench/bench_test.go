package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"sync/atomic"
	"testing"
)

// TestSeedDeterminism: the same seed yields byte-identical decks and request
// sequences; another seed yields different ones.
func TestSeedDeterminism(t *testing.T) {
	gen := func(seed uint64) []string {
		var out []string
		for _, w := range []workload{gridTableII(), gridLarge(), fraclineHistory()} {
			inst, err := w.setup(seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range inst.(*offline).decks {
				out = append(out, d.text)
			}
		}
		decks := newMixDecks(seed)
		for id := -len(decks.poolCombos()); id < 64; id++ {
			out = append(out, string(decks.request(id).body))
		}
		return out
	}
	a, b, c := gen(7), gen(7), gen(8)
	if len(a) != len(b) || len(a) != len(c) {
		t.Fatalf("input counts differ: %d, %d, %d", len(a), len(b), len(c))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("input %d differs between two generations from seed 7", i)
		}
		if a[i] == c[i] {
			t.Fatalf("input %d is the same for seeds 7 and 8", i)
		}
	}
}

// TestMixComposition: every cycle of the request schedule holds one request
// of each kind, so every kind has the same share whatever the seed.
func TestMixComposition(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		d := newMixDecks(seed)
		for cycle := 0; cycle < 4; cycle++ {
			count := map[string]int{}
			for pos := 0; pos < len(mixCycle); pos++ {
				count[d.request(cycle*len(mixCycle)+pos).kind]++
			}
			want := map[string]int{}
			for _, k := range mixCycle {
				want[k]++
			}
			for k, n := range want {
				if count[k] != n {
					t.Fatalf("seed %d cycle %d: %d %s requests, want %d", seed, cycle, count[k], k, n)
				}
			}
		}
	}
}

// TestSmoke runs a seconds-scale instance of every workload, untraced and
// traced, and requires every op to pass its correctness check and every
// metric of the mode to be printed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads() {
		for _, traced := range []bool{false, true} {
			res, err := run(runConfig{workload: w, seed: 3, seconds: 0.5, trace: traced}, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Fatalf("%s trace=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				if _, ok := res.Metrics[d.name]; !ok {
					t.Fatalf("%s trace=%v: metric %s missing", w.name, traced, d.name)
				}
			}
		}
	}
}

// runOps sets a workload up, applies hook, runs n ops and returns how many
// the tally counts as failed.
func runOps(t *testing.T, w workload, n int, hook func(instance)) int {
	t.Helper()
	inst, _, err := setupTimed(w, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	if err := inst.prepare(); err != nil {
		t.Fatal(err)
	}
	hook(inst)
	var next atomic.Int64
	var stats []opStat
	for i := 0; i < n; i++ {
		stats = append(stats, inst.op(int(next.Add(1)-1), nil))
	}
	var buf bytes.Buffer
	_, failed := tally(&buf, stats, inst.verify())
	return failed
}

// TestCorruptedOutputCounted: a deliberately corrupted output is counted as
// a failed op, both when it is a deck's first output (checked against the
// reference) and when it is a later one (checked against the first).
func TestCorruptedOutputCounted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs workloads")
	}
	w := fraclineHistory()
	if failed := runOps(t, w, 6, func(instance) {}); failed != 0 {
		t.Fatalf("clean run: %d failed ops", failed)
	}
	for _, bad := range []int{1, 5} {
		failed := runOps(t, w, 6, func(inst instance) {
			inst.(*offline).corrupt = func(id int, out []float64) {
				if id == bad {
					out[len(out)-1] *= 1 + 1e-6
				}
			}
		})
		if failed == 0 {
			t.Fatalf("corrupting op %d went unnoticed", bad)
		}
	}
	failed := runOps(t, serveMix(), 10, func(inst instance) {
		inst.(*serveMixInst).corrupt = func(id int, out []float64) {
			if id == 3 || id == 9 {
				out[len(out)-1] *= 1 + 1e-6
			}
		}
	})
	if failed != 2 {
		t.Fatalf("serve-mix: %d failed ops, want the 2 corrupted ones", failed)
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	v, p := tail(xs)
	if v != 90 || p != 90 {
		t.Fatalf("tail of 1..100 = %g at p%g, want 90 at p90", v, p)
	}
	if v, p := tail(xs[:15]); v != 15 || p != 100 {
		t.Fatalf("tail of 15 samples = %g at p%g, want the maximum", v, p)
	}
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Fatalf("median = %g, want 2.5", m)
	}
}

// TestBenchmarkJSON: the metric names and units printed match the ones
// BENCHMARK.json at the repository root declares, and every workload it
// names exists.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json above this directory")
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Fatalf("BENCHMARK.json names workload %q, which does not exist", w.Name)
		}
	}
	check := func(kind string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics here, %d in BENCHMARK.json", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Fatalf("%s metric %d: %s [%s] here, %s [%s] in BENCHMARK.json", kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
}
