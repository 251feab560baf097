package main

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"opmsim/internal/basis"
	"opmsim/internal/circuit"
	"opmsim/internal/core"
	"opmsim/internal/mat"
	"opmsim/internal/sparse"
	"opmsim/internal/transient"
)

// Offline workloads: one client; an op parses a deck's text, stamps it
// (circuit.Parse → Netlist.NA/MNA) and runs core.Solve with no factor
// cache, as opm-sim does. Ops cycle over a small pool of seeded decks, so
// each deck's reference is computed once, after the timed loop.

// offlineSpec fixes one offline workload.
type offlineSpec struct {
	name    string
	pool    int     // decks in the pool
	m       int     // BPF columns
	T       float64 // span
	na      bool    // second-order nodal analysis (else MNA)
	workers int     // core.Options.Workers (0 = GOMAXPROCS)
	gen     func(seed uint64, k int) (text string, cards int, probes []string)
	refs    []reference
}

// reference is an independent route to the same waveform. It returns the
// reference in the op-output layout — probe rows, then the last column —
// and how many leading entries of that layout it covers.
type reference struct {
	name string
	tol  float64 // max |out−ref| / max |ref| over covered entries
	run  func(s *offlineSpec, d *offDeck) (ref []float64, covered int, err error)
}

// offDeck is one generated deck plus what the first op learned about it.
type offDeck struct {
	text   string
	cards  int
	probes []string
	// Filled under offline.mu by the first recorded op of the deck.
	probeIdx []int
	first    []float64
	firstDig uint64
	firstOp  int
}

type opOutput struct {
	deck int
	dig  uint64
}

type offline struct {
	spec  *offlineSpec
	decks []*offDeck

	mu   sync.Mutex
	outs map[int]opOutput
	// corrupt, when set (self-tests only), alters an op's output before it
	// is recorded.
	corrupt func(id int, out []float64)
}

func (s *offlineSpec) workload() workload {
	return workload{name: s.name, clients: 1, workers: s.workers, setup: func(seed uint64) (instance, error) {
		o := &offline{spec: s, outs: map[int]opOutput{}}
		for k := 0; k < s.pool; k++ {
			text, cards, probes := s.gen(seed, k)
			o.decks = append(o.decks, &offDeck{text: text, cards: cards, probes: probes, firstOp: -1})
		}
		return o, nil
	}}
}

func (o *offline) close() {}

// settle starts each timed op on a collected heap, as a fresh opm-sim
// process does; the collection is outside the op's latency but inside the
// loop's wall time, so ops_per_s still pays for it.
func (o *offline) settle() { runtime.GC() }

func (o *offline) prepare() error { return nil }

func (s *offlineSpec) options(rep *core.SolveReport) core.Options {
	return core.Options{Workers: s.workers, Report: rep}
}

// stamp builds the model the workload solves.
func (s *offlineSpec) stamp(nl *circuit.Netlist) (*circuit.MNA, error) {
	if s.na {
		return nl.NA()
	}
	return nl.MNA()
}

// stateIndex maps node names to their voltage states in mna.
func stateIndex(mna *circuit.MNA, names []string) ([]int, error) {
	idx := make([]int, len(names))
	for k, nm := range names {
		idx[k] = -1
		for i, sn := range mna.StateNames {
			if sn == "v("+nm+")" {
				idx[k] = i
				break
			}
		}
		if idx[k] < 0 {
			return nil, fmt.Errorf("probe node %q has no state", nm)
		}
	}
	return idx, nil
}

// output lays a solution out as probe rows followed by the last column.
func output(sol *core.Solution, probeIdx []int) []float64 {
	x := sol.Coefficients()
	n, m := x.Rows(), x.Cols()
	out := make([]float64, 0, len(probeIdx)*m+n)
	for _, i := range probeIdx {
		out = append(out, x.Row(i)...)
	}
	for i := 0; i < n; i++ {
		out = append(out, x.At(i, m-1))
	}
	return out
}

func (o *offline) op(id int, tr *tracer) opStat {
	s := o.spec
	k := 0
	if id >= 0 {
		k = id % len(o.decks)
	}
	d := o.decks[k]
	st := opStat{id: id}

	root := tr.begin(id, -1, "op")
	start := time.Now()
	var deck *circuit.Deck
	var mna *circuit.MNA
	var sol *core.Solution
	var first time.Time
	rep := &core.SolveReport{}
	err := tr.timed(id, root, "circuit.parse", func() (err error) {
		deck, err = circuit.Parse(strings.NewReader(d.text))
		return err
	})
	if err == nil {
		err = tr.timed(id, root, "circuit.stamp", func() (err error) {
			mna, err = s.stamp(deck.Netlist)
			return err
		})
	}
	solveID := -1
	if err == nil {
		opt := s.options(rep)
		opt.OnColumn = func(col int, _ float64, _ []float64) {
			if col == 0 {
				first = time.Now()
			}
		}
		solveID = tr.begin(id, root, "core.solve")
		sol, err = core.Solve(mna.Sys, mna.Inputs, s.m, s.T, opt)
		tr.end(solveID)
	}
	st.lat = time.Since(start)
	tr.end(root)
	if err != nil {
		st.err = err
		return st
	}
	st.ttfc = first.Sub(start)
	if id < 0 {
		return st
	}

	o.mu.Lock()
	if d.probeIdx == nil {
		if d.probeIdx, err = stateIndex(mna, d.probes); err != nil {
			o.mu.Unlock()
			st.err = err
			return st
		}
	}
	probeIdx := d.probeIdx
	o.mu.Unlock()
	out := output(sol, probeIdx)
	if o.corrupt != nil {
		o.corrupt(id, out)
	}
	dig := digest(out)
	o.mu.Lock()
	if d.first == nil {
		d.first, d.firstDig, d.firstOp = out, dig, id
	}
	o.outs[id] = opOutput{deck: k, dig: dig}
	o.mu.Unlock()

	if tr != nil {
		tr.count("circuit.cards", float64(d.cards))
		tr.count("core.factorizations", float64(rep.Factorizations))
		tr.count("core.tier_solves.sparse_lu", float64(rep.TierSolves[core.TierSparseLU]))
		tr.count("core.tier_solves.dense_lu", float64(rep.TierSolves[core.TierDenseLU]))
		tr.count("core.tier_solves.qr", float64(rep.TierSolves[core.TierQR]))
		tr.count("core.tier_solves.supernodal", float64(rep.TierSolves[core.TierSupernodal]))
		if err := replaySolve(id, solveID, mna.Sys, s.m, s.T, s.workers, rep, tr); err != nil {
			st.err = err
		}
	}
	return st
}

// pencilSolver is the public surface shared by the two factorization tiers.
type pencilSolver interface {
	SolveInto(x, b []float64) error
	NNZFactors() int
}

// sparsePass is one pass of the sparse layer over a leading pencil.
type sparsePass struct {
	f                       pencilSolver
	order, factor, colsolve time.Duration
}

// runSparse replays what core.Solve does in the sparse layer, through the
// public sparse calls, on the tier the op's SolveReport says served it:
// the ordering (RCM and the permutation, or nested dissection), the numeric
// factor with its condition estimate, and m column solves. FactorBBD
// dissects internally, so its ordering time is a Dissect into the domain
// count the factor ended with, timed after it, and its factor time is the
// FactorBBD call minus that.
func runSparse(a *sparse.CSR, bbd bool, workers, m int, seed uint64) (sparsePass, error) {
	var p sparsePass
	t0 := time.Now()
	if bbd {
		b, err := sparse.FactorBBD(a, sparse.BBDOptions{Workers: workers})
		if err != nil {
			return p, err
		}
		b.Cond1Est()
		total := time.Since(t0)
		t1 := time.Now()
		dis := sparse.Dissect(a, b.Parts())
		p.order = time.Since(t1)
		if len(dis.Domains) != b.Parts() {
			return p, fmt.Errorf("replayed dissection gave %d domains, the factor has %d", len(dis.Domains), b.Parts())
		}
		p.factor, p.f = total-p.order, b
	} else {
		ap := a.Permute(sparse.RCM(a))
		p.order = time.Since(t0)
		t1 := time.Now()
		sf, err := sparse.Factor(ap, sparse.Options{NoRCM: true})
		if err != nil {
			return p, err
		}
		sf.Cond1Est()
		p.factor, p.f = time.Since(t1), sf
	}
	n := a.R
	rhs, x := make([]float64, n), make([]float64, n)
	rng := newRNG(seed, 7)
	for i := range rhs {
		rhs[i] = rng.Float64() - 0.5
	}
	t0 = time.Now()
	for j := 0; j < m; j++ {
		if err := p.f.SolveInto(x, rhs); err != nil {
			return p, err
		}
	}
	p.colsolve = time.Since(t0)
	return p, nil
}

// replaySolve re-runs, as public calls, the steps core.Solve performed
// inside the op's core.solve span, and records each as a replayed child of
// that span: basis coefficients, the leading pencil, and the sparse pass.
func replaySolve(id, parent int, sys *core.System, m int, T float64, workers int, rep *core.SolveReport, tr *tracer) error {
	t0 := time.Now()
	bpf, err := basis.NewBPF(m, T)
	if err != nil {
		return err
	}
	seen := map[float64]bool{}
	for _, t := range sys.Terms {
		if t.Order != 0 && !seen[t.Order] {
			seen[t.Order] = true
			bpf.DiffCoeffs(t.Order)
		}
	}
	if sys.BOrder != 0 {
		bpf.DiffCoeffs(sys.BOrder)
	}
	tr.add(id, parent, "basis.diffcoeffs", t0, time.Since(t0), true)

	t0 = time.Now()
	a, _, err := core.LeadingPencil(sys, m, T)
	if err != nil {
		return err
	}
	tr.add(id, parent, "core.pencil", t0, time.Since(t0), true)
	tr.count("core.pencil_nnz", float64(a.NNZ()))

	t0 = time.Now()
	p, err := runSparse(a, rep.TierSolves[core.TierSupernodal] > 0, workers, m, uint64(id)+1)
	if err != nil {
		return err
	}
	tr.add(id, parent, "sparse.order", t0, p.order, true)
	tr.add(id, parent, "sparse.factor", t0.Add(p.order), p.factor, true)
	tr.add(id, parent, "sparse.colsolve", t0.Add(p.order+p.factor), p.colsolve, true)
	tr.count("sparse.fill_nnz", float64(p.f.NNZFactors()))
	if b, ok := p.f.(*sparse.BBD); ok {
		tr.count("sparse.bbd_parts", float64(b.Parts()))
		tr.count("sparse.bbd_iface_n", float64(b.IfaceN()))
	}
	return nil
}

// colsolveCost is the computed work of one column solve against a factor
// with fill nonzeros in n rows: a multiply-add per stored factor entry, and
// per entry an 8-byte value plus an 8-byte index read, plus right-hand
// side, solution and permutation vectors. Computed, not measured.
func colsolveCost(fill, n int) (flops, bytes float64) {
	return 2 * float64(fill), 16*float64(fill) + 32*float64(n)
}

// layers turns the traced ops' spans and counts into per-layer metrics:
// ordering, factor and column solves come from the replayed sparse pass of
// every traced op. What the ops do not show is measured on deck 0's
// pencil: the BBD factor on one worker, against which factor_speedup
// compares the ops' factor time, and the 32-wide panel solve.
func (o *offline) layers(tr *tracer, lt *layerTable, budget time.Duration) (map[string]float64, error) {
	s := o.spec
	v := map[string]float64{
		"circuit.parse_ms":    lt.medianDur("circuit.parse"),
		"circuit.stamp_ms":    lt.medianDur("circuit.stamp"),
		"basis.diffcoeffs_ms": lt.medianDur("basis.diffcoeffs"),
		"core.pencil_ms":      lt.medianDur("core.pencil"),
		"sparse.order_ms":     lt.medianDur("sparse.order"),
		"sparse.factor_ms":    lt.medianDur("sparse.factor"),
		"sparse.colsolve_us":  1e3 * lt.medianDur("sparse.colsolve") / float64(s.m),
		"core.solve_ms":       lt.medianDur("core.solve"),
		"core.march_self_ms":  lt.medianSelf("core.solve"),
	}
	tr.mu.Lock()
	for name, xs := range tr.counts {
		v[name] = median(xs)
	}
	tr.mu.Unlock()
	a, err := pencilOf(o.decks[0].text, s.stamp, s.m, s.T)
	if err != nil {
		return nil, err
	}
	bbd := v["core.tier_solves.supernodal"] > 0
	if bbd {
		w1, err := factorOneWorker(a, budget/2)
		if err != nil {
			return nil, err
		}
		v["sparse.factor_ms.w1"] = w1
		v["sparse.factor_speedup"] = w1 / v["sparse.factor_ms"]
	}
	p, err := runSparse(a, bbd, s.workers, 1, 1)
	if err != nil {
		return nil, err
	}
	if v["sparse.panel_us_per_rhs"], err = panelUsPerRHS(p.f, s.m, budget/2); err != nil {
		return nil, err
	}
	flops, bytes := colsolveCost(int(v["sparse.fill_nnz"]), a.R)
	v["sparse.colsolve_flops"], v["sparse.colsolve_bytes"] = flops, bytes
	v["sparse.colsolve_gbps_computed"] = bytes / (v["sparse.colsolve_us"] * 1e3)
	return v, nil
}

// pencilOf parses and stamps a deck and assembles its leading pencil.
func pencilOf(text string, stamp func(*circuit.Netlist) (*circuit.MNA, error), m int, T float64) (*sparse.CSR, error) {
	deck, err := circuit.Parse(strings.NewReader(text))
	if err != nil {
		return nil, err
	}
	mna, err := stamp(deck.Netlist)
	if err != nil {
		return nil, err
	}
	a, _, err := core.LeadingPencil(mna.Sys, m, T)
	return a, err
}

// repeatFor runs f at least three times and until share has passed, at
// most nine times.
func repeatFor(share time.Duration, f func() error) error {
	deadline := time.Now().Add(share)
	for r := 0; r < 9 && (r < 3 || time.Now().Before(deadline)); r++ {
		if err := f(); err != nil {
			return err
		}
	}
	return nil
}

// factorOneWorker is the median time of FactorBBD on pencil a at one
// worker, measured the way runSparse measures it.
func factorOneWorker(a *sparse.CSR, budget time.Duration) (float64, error) {
	var w1 []float64
	err := repeatFor(budget, func() error {
		p, err := runSparse(a, true, 1, 0, 1)
		w1 = append(w1, ms(p.factor))
		return err
	})
	return median(w1), err
}

// panelUsPerRHS is the median time per right-hand side of 32-wide panel
// solves covering m columns against factor f.
func panelUsPerRHS(f pencilSolver, m int, budget time.Duration) (float64, error) {
	const width = 32
	panels := (m + width - 1) / width
	var n int
	var solve func(xp, bp *mat.Dense) error
	switch ff := f.(type) {
	case *sparse.BBD:
		sc := ff.NewPanelScratch(width)
		n, solve = ff.N(), func(xp, bp *mat.Dense) error { return ff.SolvePanelInto(xp, bp, sc) }
	case *sparse.Factorization:
		sc := ff.NewPanelScratch(width)
		n, solve = ff.N(), func(xp, bp *mat.Dense) error { return ff.SolvePanelInto(xp, bp, sc) }
	default:
		return 0, fmt.Errorf("no panel solve for %T", f)
	}
	bp, xp := mat.NewDense(n, width), mat.NewDense(n, width)
	rng := newRNG(3, 11)
	for i := range bp.Data() {
		bp.Data()[i] = rng.Float64() - 0.5
	}
	var panel []float64
	err := repeatFor(budget, func() error {
		t0 := time.Now()
		for p := 0; p < panels; p++ {
			if err := solve(xp, bp); err != nil {
				return err
			}
		}
		panel = append(panel, float64(time.Since(t0).Nanoseconds())/1e3/float64(panels*width))
		return nil
	})
	return median(panel), err
}

// verify compares each deck's first output with every reference, and every
// other op's output with its deck's first output bit for bit.
func (o *offline) verify() map[int]string {
	bad := map[int]string{}
	o.mu.Lock()
	defer o.mu.Unlock()
	deckErr := map[int]string{}
	for k, d := range o.decks {
		if d.first == nil {
			continue
		}
		for _, r := range o.spec.refs {
			ref, covered, err := r.run(o.spec, d)
			if err != nil {
				deckErr[k] = fmt.Sprintf("reference %s: %v", r.name, err)
				break
			}
			if e := relMaxDiff(d.first[:covered], ref[:covered]); !(e <= r.tol) {
				deckErr[k] = fmt.Sprintf("deck %d differs from %s by %.3g (tolerance %.3g)", k, r.name, e, r.tol)
				break
			}
		}
	}
	for id, out := range o.outs {
		d := o.decks[out.deck]
		switch {
		case deckErr[out.deck] != "":
			bad[id] = deckErr[out.deck]
		case out.dig != d.firstDig:
			bad[id] = fmt.Sprintf("output differs from op %d on the same deck", d.firstOp)
		}
	}
	return bad
}

// refOPM is the workload's own OPM solve with one option changed — the
// other factorization tier, or the exact history engine — in the op-output
// layout.
func refOPM(name string, tol float64, tweak func(*core.Options)) reference {
	return reference{name: name, tol: tol, run: func(s *offlineSpec, d *offDeck) ([]float64, int, error) {
		deck, err := circuit.Parse(strings.NewReader(d.text))
		if err != nil {
			return nil, 0, err
		}
		mna, err := s.stamp(deck.Netlist)
		if err != nil {
			return nil, 0, err
		}
		opt := s.options(nil)
		tweak(&opt)
		sol, err := core.Solve(mna.Sys, mna.Inputs, s.m, s.T, opt)
		if err != nil {
			return nil, 0, err
		}
		ref := output(sol, d.probeIdx)
		return ref, len(ref), nil
	}}
}

// refTrapezoidal integrates the MNA model with the trapezoidal rule at the
// OPM step and averages neighbouring samples onto the BPF intervals, for
// the probe rows only.
func refTrapezoidal(tol float64) reference {
	return reference{name: "trapezoidal (transient.Simulate on MNA)", tol: tol, run: func(s *offlineSpec, d *offDeck) ([]float64, int, error) {
		deck, err := circuit.Parse(strings.NewReader(d.text))
		if err != nil {
			return nil, 0, err
		}
		mna, err := deck.Netlist.MNA()
		if err != nil {
			return nil, 0, err
		}
		e, a, b, err := mna.DAE()
		if err != nil {
			return nil, 0, err
		}
		res, err := transient.Simulate(e, a, b, mna.Inputs, s.T, s.T/float64(s.m), transient.Trapezoidal, transient.Options{})
		if err != nil {
			return nil, 0, err
		}
		idx, err := stateIndex(mna, d.probes)
		if err != nil {
			return nil, 0, err
		}
		ref := make([]float64, 0, len(idx)*s.m)
		for _, i := range idx {
			row := res.StateRow(i)
			if len(row) < s.m+1 {
				return nil, 0, fmt.Errorf("trapezoidal run gave %d samples, want %d", len(row), s.m+1)
			}
			for j := 0; j < s.m; j++ {
				ref = append(ref, 0.5*(row[j]+row[j+1]))
			}
		}
		return ref, len(ref), nil
	}}
}

// gridTableII is the paper's Table II hot loop: column solves dominate, the
// factor is small, history is the integer recurrence; no BBD tier, no
// fractional history, no service.
func gridTableII() workload {
	const m, T = 1000, 10e-9
	s := &offlineSpec{
		name: "grid-tableii",
		pool: 4, m: m, T: T, na: true,
		gen: func(seed uint64, k int) (string, int, []string) {
			text, cards := gridDeck(fmt.Sprintf("grid-tableii seed=%d deck=%d", seed, k), tableIIGrid, T, T/m, newRNG(seed, uint64(k)))
			return text, cards, tableIIGrid.probes()
		},
		refs: []reference{
			refOPM("OPM on the supernodal/BBD tier", 1e-9, func(o *core.Options) { o.Supernodal = 1 }),
			refTrapezoidal(5e-2),
		},
	}
	return s.workload()
}

// gridLarge is the only workload the supernodal/BBD tier serves: parse and
// stamp of ~37 k cards, nested dissection and the parallel factor weigh in.
func gridLarge() workload {
	const m, T = 64, 10e-9
	g := largeGrid(10000)
	s := &offlineSpec{
		name: "grid-large",
		pool: 2, m: m, T: T, na: true, workers: runtime.NumCPU(),
		gen: func(seed uint64, k int) (string, int, []string) {
			text, cards := gridDeck(fmt.Sprintf("grid-large seed=%d deck=%d", seed, k), g, T, T/m, newRNG(seed, 100+uint64(k)))
			return text, cards, g.probes()
		},
		refs: []reference{
			refOPM("OPM on the scalar sparse-LU tier", 1e-9, func(o *core.Options) { o.Supernodal = -1 }),
		},
	}
	return s.workload()
}

// fraclineHistory is dominated by the fractional history (FFT tier);
// factor and ordering are negligible, so changes to them should not move it.
func fraclineHistory() workload {
	const m, T = 4096, 2.7e-9
	const sections = 64
	s := &offlineSpec{
		name: "fracline-history",
		pool: 4, m: m, T: T,
		gen: func(seed uint64, k int) (string, int, []string) {
			text, cards := ladderDeck(fmt.Sprintf("fracline-history seed=%d deck=%d", seed, k), sections, 0.5, T, newRNG(seed, 200+uint64(k)))
			return text, cards, []string{"v1", "v32", "v64"}
		},
		refs: []reference{
			refOPM("OPM with the exact history engine", 1e-10, func(o *core.Options) { o.HistoryMode = core.HistoryExact }),
		},
	}
	return s.workload()
}
