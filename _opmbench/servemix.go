package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"opmsim/internal/basis"
	"opmsim/internal/circuit"
	"opmsim/internal/core"
	"opmsim/internal/netgen"
	"opmsim/internal/serve"
	"opmsim/internal/sparse"
	"opmsim/internal/waveform"
)

// serve-mix: nproc clients in one process POST a seeded request mix to an
// in-process serve.Server (ServeHTTP called directly, journal on in a
// temporary directory). An op is one POST, from the request being sent to
// the "done" trailer being received and decoded.

// Request kinds of the mix, all with the same weight: each cycle of five
// requests holds one of each, in a seeded order. The workload is defined by
// four kinds — amplitude sweeps, tolerance sweeps, exact-history fractional
// decks and small integer decks — and the small integer decks come as two
// kinds, a pool deck that hits the factor cache after the warm-up and a deck
// never seen before that misses it. With five equal shares the median of a
// per-op figure falls inside the middle kind rather than on the boundary
// between two kinds, so it does not flip between them from run to run.
const (
	kindAmp   = "amp"   // amplitude sweep: K=32, m=512, grid deck
	kindTol   = "tol"   // tolerance sweep: count 64, tol 5 %, m=64, two elements, grid deck (SMW path)
	kindFrac  = "frac"  // fractional CPE ladder, history exact, m=1024
	kindSmall = "small" // small integer RC ladder from the pool, m=256
	kindFresh = "fresh" // small integer RC ladder with fresh values, m=256
)

var mixCycle = []string{kindAmp, kindTol, kindFrac, kindSmall, kindFresh}

// mixGrid is the integer RLC deck of the sweeps: a 2-layer 6×6 power grid.
var mixGrid = gridSpec{layers: 2, rows: 6, cols: 6, loads: 6, padPitch: 3}

const (
	mixGridT   = 10e-9
	mixLadderT = 2.7e-9
)

// mixRequest is one generated POST /v1/solve body and what checking it
// needs.
type mixRequest struct {
	kind  string
	key   string // "<kind>/<pool deck>", or "fresh/<op id>"
	body  []byte
	title string
}

// wireRequest mirrors the documented request JSON.
type wireRequest struct {
	Netlist string     `json:"netlist"`
	Steps   int        `json:"steps"`
	TStop   float64    `json:"tstop"`
	Sweep   *wireSweep `json:"sweep,omitempty"`
	History string     `json:"history,omitempty"`
	Nodes   []string   `json:"nodes"`
}

type wireSweep struct {
	Count    int      `json:"count"`
	Lo       *float64 `json:"lo,omitempty"`
	Hi       *float64 `json:"hi,omitempty"`
	Tol      *float64 `json:"tol,omitempty"`
	Seed     uint64   `json:"seed,omitempty"`
	Elements int      `json:"elements,omitempty"`
}

// mixDecks is the seeded deck pool (deck text without its title line).
type mixDecks struct {
	seed              uint64
	grid, frac, small [2]string
}

func newMixDecks(seed uint64) *mixDecks {
	d := &mixDecks{seed: seed}
	for k := 0; k < 2; k++ {
		g, _ := gridDeck("", mixGrid, mixGridT, mixGridT/512, newRNG(seed, 300+uint64(k)))
		f, _ := ladderDeck("", 16, 0.5, mixLadderT, newRNG(seed, 310+uint64(k)))
		s, _ := ladderDeck("", 32, 1, mixLadderT, newRNG(seed, 320+uint64(k)))
		d.grid[k], d.frac[k], d.small[k] = stripTitle(g), stripTitle(f), stripTitle(s)
	}
	return d
}

func stripTitle(text string) string { return text[strings.IndexByte(text, '\n')+1:] }

// request returns op id's request: a pure function of the seed and id.
// Warm-up requests use negative ids, one per pool combination.
func (d *mixDecks) request(id int) mixRequest {
	var kind string
	var deck int
	if id < 0 {
		combos := d.poolCombos()
		c := combos[-id-1]
		kind, deck = c.kind, c.deck
	} else {
		cycle, pos := id/len(mixCycle), id%len(mixCycle)
		rng := newRNG(d.seed, 1<<20+uint64(cycle))
		kind = mixCycle[rng.Perm(len(mixCycle))[pos]]
		deck = int(rng.Uint64()>>pos) & 1
	}
	r := mixRequest{kind: kind, key: fmt.Sprintf("%s/%d", kind, deck)}
	r.title = fmt.Sprintf("serve-mix op=%d %s", id, r.key)
	w := wireRequest{}
	one, lo, hi, tol := 1.0, 0.5, 1.5, 0.05
	switch kind {
	case kindAmp:
		w = wireRequest{Netlist: d.grid[deck], Steps: 512, TStop: mixGridT,
			Sweep: &wireSweep{Count: 32, Lo: &lo, Hi: &hi}, Nodes: mixGridProbes()}
	case kindTol:
		w = wireRequest{Netlist: d.grid[deck], Steps: 64, TStop: mixGridT,
			Sweep: &wireSweep{Count: 64, Lo: &one, Tol: &tol, Seed: d.seed, Elements: 2}, Nodes: mixGridProbes()}
	case kindFrac:
		w = wireRequest{Netlist: d.frac[deck], Steps: 1024, TStop: mixLadderT, History: "exact", Nodes: []string{"v1", "v16"}}
	case kindSmall:
		w = wireRequest{Netlist: d.small[deck], Steps: 256, TStop: mixLadderT, Nodes: []string{"v1", "v32"}}
	case kindFresh:
		r.key = fmt.Sprintf("%s/%d", kind, id)
		s, _ := ladderDeck("", 32, 1, mixLadderT, newRNG(d.seed, 1<<30+uint64(id+1)))
		w = wireRequest{Netlist: stripTitle(s), Steps: 256, TStop: mixLadderT, Nodes: []string{"v1", "v32"}}
	}
	w.Netlist = r.title + "\n" + w.Netlist
	body, err := json.Marshal(w)
	if err != nil {
		panic(err) // plain structs of strings and numbers always marshal
	}
	r.body = body
	return r
}

func mixGridProbes() []string {
	return []string{gridNode(0, mixGrid.rows/2, mixGrid.cols/2), gridNode(mixGrid.layers-1, mixGrid.rows-1, mixGrid.cols-1)}
}

type combo struct {
	kind string
	deck int
}

func (d *mixDecks) poolCombos() []combo {
	var cs []combo
	for _, k := range []string{kindAmp, kindTol, kindFrac, kindSmall} {
		for deck := 0; deck < 2; deck++ {
			cs = append(cs, combo{k, deck})
		}
	}
	return cs
}

// streamClient is the client side of one POST: an http.ResponseWriter that
// decodes the NDJSON records as the handler writes them, timestamps the
// first column record, and keeps the streamed values.
type streamClient struct {
	hdr     http.Header
	status  int
	pending []byte
	bytes   int
	first   time.Time
	rec     wireRecord
	vals    []float64 // [column][scenario][state]
	scen    int
	states  int
	steps   int
	cols    int
	done    bool
	errMsg  string
}

type wireRecord struct {
	Type      string      `json:"type"`
	J         int         `json:"j"`
	X         [][]float64 `json:"x"`
	States    []string    `json:"states"`
	Steps     int         `json:"steps"`
	Scenarios int         `json:"scenarios"`
	Kind      string      `json:"kind"`
	Error     string      `json:"error"`
}

func (c *streamClient) reset() {
	c.hdr = http.Header{}
	c.status, c.bytes, c.cols, c.done, c.errMsg = 0, 0, 0, false, ""
	c.pending = c.pending[:0]
	c.first = time.Time{}
	c.steps = 0
}

func (c *streamClient) Header() http.Header { return c.hdr }

func (c *streamClient) WriteHeader(code int) {
	if c.status == 0 {
		c.status = code
	}
}

func (c *streamClient) Flush() {}

func (c *streamClient) Write(p []byte) (int, error) {
	if c.status == 0 {
		c.status = http.StatusOK
	}
	c.bytes += len(p)
	c.pending = append(c.pending, p...)
	for {
		i := bytes.IndexByte(c.pending, '\n')
		if i < 0 {
			break
		}
		c.record(c.pending[:i])
		c.pending = c.pending[:copy(c.pending, c.pending[i+1:])]
	}
	return len(p), nil
}

func (c *streamClient) record(line []byte) {
	if c.status != http.StatusOK {
		c.errMsg = string(line)
		return
	}
	if c.errMsg != "" {
		return
	}
	c.rec.Type = ""
	if err := json.Unmarshal(line, &c.rec); err != nil {
		c.errMsg = "undecodable record: " + err.Error()
		return
	}
	switch c.rec.Type {
	case "header":
		c.scen, c.states, c.steps = c.rec.Scenarios, len(c.rec.States), c.rec.Steps
		need := c.steps * c.scen * c.states
		if cap(c.vals) < need {
			c.vals = make([]float64, need)
		}
		c.vals = c.vals[:need]
	case "column":
		if c.first.IsZero() {
			c.first = time.Now()
		}
		j := c.rec.J
		if j < 0 || j >= c.steps || len(c.rec.X) != c.scen {
			c.errMsg = fmt.Sprintf("column record %d does not match the header", j)
			return
		}
		base := j * c.scen * c.states
		for s, xs := range c.rec.X {
			if len(xs) != c.states {
				c.errMsg = fmt.Sprintf("column %d scenario %d has %d states, want %d", j, s, len(xs), c.states)
				return
			}
			copy(c.vals[base+s*c.states:], xs)
		}
		c.cols++
	case "done":
		c.done = true
	case "error":
		c.errMsg = c.rec.Kind + ": " + c.rec.Error
	}
}

// jobInfo is what OnJobDone reported for one job.
type jobInfo struct {
	dur time.Duration
	rep core.SolveReport
}

type serveMixInst struct {
	decks   *mixDecks
	srv     *serve.Server
	dir     string
	clients chan *streamClient

	mu    sync.Mutex
	jobs  map[string]jobInfo // by title
	refs  map[string][]float64
	fresh map[int][]float64 // fresh-deck outputs, checked after the run
	bad   map[int]string
	// Response bytes and responses of the run's ops.
	bytes, responses int
	// corrupt, when set (self-tests only), alters an op's streamed values
	// before they are checked.
	corrupt func(id int, out []float64)
	// cache is the offline SolveBatch's own factor cache, warmed like the
	// server's, for serve.overhead_ms.
	cache *core.FactorCache
	// Factor-cache counters after the warm-up, and the SMW dispatch counts
	// of traced ops.
	hits0, upd0, miss0 int
	updates, refactors int
}

// serveMix is the only workload that exercises admission, factor-cache hits
// and misses, multi-RHS panels, SMW updates, the exact history engine,
// NDJSON encoding and journal fsync.
func serveMix() workload {
	n := runtime.NumCPU()
	return workload{
		name:    "serve-mix",
		clients: n,
		workers: 1,
		setup: func(seed uint64) (instance, error) {
			dir, err := os.MkdirTemp("", "opmbench-journal-")
			if err != nil {
				return nil, err
			}
			in := &serveMixInst{
				decks:   newMixDecks(seed),
				dir:     dir,
				clients: make(chan *streamClient, n),
				jobs:    map[string]jobInfo{},
				refs:    map[string][]float64{},
				fresh:   map[int][]float64{},
				bad:     map[int]string{},
				cache:   core.NewFactorCache(0),
			}
			in.srv = newServer(dir, n)
			in.srv.OnJobDone = in.onJobDone
			for i := 0; i < n; i++ {
				in.clients <- &streamClient{}
			}
			return in, nil
		},
	}
}

// newServer builds the server under test: nproc job slots, journal in dir
// (none when dir is empty), everything else at opm-serve's defaults.
func newServer(dir string, workers int) *serve.Server {
	return serve.New(serve.Config{Workers: workers, JournalDir: dir})
}

func (in *serveMixInst) onJobDone(d serve.Done) {
	info := jobInfo{dur: d.Duration}
	if d.Report != nil {
		info.rep = *d.Report
	}
	in.mu.Lock()
	in.jobs[d.Title] = info
	in.mu.Unlock()
}

// settle does nothing: the service keeps its heap between requests.
func (in *serveMixInst) settle() {}

func (in *serveMixInst) close() {
	os.RemoveAll(in.dir)
}

// post sends one request through srv and returns its latency and time to
// first column; the streamed values stay in c until its next use.
func post(srv *serve.Server, c *streamClient, body []byte) (lat, ttfc time.Duration, err error) {
	c.reset()
	req, err := http.NewRequestWithContext(context.Background(), http.MethodPost, "/v1/solve", bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	start := time.Now()
	srv.ServeHTTP(c, req)
	lat = time.Since(start)
	switch {
	case c.status != http.StatusOK:
		return lat, 0, fmt.Errorf("HTTP %d: %s", c.status, c.errMsg)
	case c.errMsg != "":
		return lat, 0, fmt.Errorf("stream: %s", c.errMsg)
	case !c.done || c.cols != c.steps:
		return lat, 0, fmt.Errorf("stream ended after %d of %d columns without a done record", c.cols, c.steps)
	}
	return lat, c.first.Sub(start), nil
}

func (in *serveMixInst) op(id int, tr *tracer) opStat {
	if id < 0 {
		// Warm-up: every pool combination once, so the factor cache, FFT
		// plans and pools are in their steady state.
		c := <-in.clients
		defer func() { in.clients <- c }()
		for k := range in.decks.poolCombos() {
			if _, _, err := post(in.srv, c, in.decks.request(-k-1).body); err != nil {
				return opStat{id: id, err: err}
			}
		}
		return opStat{id: id}
	}
	r := in.decks.request(id)
	c := <-in.clients
	defer func() { in.clients <- c }()
	root := tr.begin(id, -1, "op")
	lat, ttfc, err := post(in.srv, c, r.body)
	tr.end(root)
	st := opStat{id: id, kind: r.kind, lat: lat, ttfc: ttfc, err: err}
	if err != nil {
		return st
	}
	if in.corrupt != nil {
		in.corrupt(id, c.vals)
	}
	in.mu.Lock()
	info, ok := in.jobs[r.title]
	delete(in.jobs, r.title)
	in.bytes += c.bytes
	in.responses++
	in.mu.Unlock()
	if !ok {
		st.err = fmt.Errorf("no OnJobDone report for %q", r.title)
		return st
	}
	in.check(id, r, c.vals)
	if tr != nil {
		in.traceOp(id, root, r, info, tr)
	}
	return st
}

// check compares one op's streamed values with the offline reference
// prepared for its pool combination; fresh-deck outputs are kept and
// checked after the run.
func (in *serveMixInst) check(id int, r mixRequest, vals []float64) {
	if r.kind == kindFresh {
		out := append([]float64(nil), vals...)
		in.mu.Lock()
		in.fresh[id] = out
		in.mu.Unlock()
		return
	}
	in.mu.Lock()
	ref := in.refs[r.key]
	in.mu.Unlock()
	if why := compareStream(r.kind, vals, ref); why != "" {
		in.mu.Lock()
		in.bad[id] = why
		in.mu.Unlock()
	}
}

// tolSweepTol bounds tolerance-sweep jobs: the service's SMW-versus-refactor
// choice is timed per run, and the two paths agree to ≤1e-12, not bitwise.
const tolSweepTol = 1e-12

func compareStream(kind string, vals, ref []float64) string {
	if ref == nil {
		return "no reference"
	}
	if kind == kindTol {
		if e := relMaxDiff(vals, ref); !(e <= tolSweepTol) {
			return fmt.Sprintf("streamed %s sweep differs from offline SolveBatch by %.3g", kind, e)
		}
		return ""
	}
	if !bitsEqual(vals, ref) {
		return fmt.Sprintf("streamed %s job is not bitwise-equal to offline SolveBatch", kind)
	}
	return ""
}

// offlineStream solves a request with core.SolveBatch the way the service
// decodes it (same scenarios, same options) and lays the streamed states
// out as the stream does. It returns the solve's wall time too.
func offlineStream(body []byte, cache *core.FactorCache) ([]float64, time.Duration, error) {
	var w wireRequest
	if err := json.Unmarshal(body, &w); err != nil {
		return nil, 0, err
	}
	deck, err := circuit.Parse(strings.NewReader(w.Netlist))
	if err != nil {
		return nil, 0, err
	}
	mna, err := deck.Netlist.MNA()
	if err != nil {
		return nil, 0, err
	}
	idx, err := stateIndex(mna, w.Nodes)
	if err != nil {
		return nil, 0, err
	}
	count, lo, hi, tol := 1, 1.0, 1.0, 0.0
	var seed uint64 = 1
	elems := 0
	if sw := w.Sweep; sw != nil {
		count = sw.Count
		if sw.Lo != nil {
			lo = *sw.Lo
		}
		hi = lo
		if sw.Hi != nil {
			hi = *sw.Hi
		}
		if sw.Tol != nil {
			tol = *sw.Tol
		}
		if sw.Seed != 0 {
			seed = sw.Seed
		}
		elems = sw.Elements
	}
	var names []string
	if tol > 0 {
		names = netgen.PerturbableElements(deck.Netlist, elems)
	}
	scen := make([]core.Scenario, count)
	for s := range scen {
		scale := lo
		if count > 1 {
			scale = lo + (hi-lo)*float64(s)/float64(count-1)
		}
		u := make([]waveform.Signal, len(mna.Inputs))
		for i, base := range mna.Inputs {
			base, scale := base, scale
			u[i] = func(t float64) float64 { return scale * base(t) }
		}
		scen[s] = core.Scenario{U: u}
		if tol > 0 && s > 0 {
			perts, err := netgen.MonteCarloPerturb(deck.Netlist, names, seed, s, tol)
			if err != nil {
				return nil, 0, err
			}
			d, err := deck.Netlist.StampDelta(mna, perts)
			if err != nil {
				return nil, 0, err
			}
			if d.Rank() > 0 {
				scen[s].Delta = d
			}
		}
	}
	hist, err := core.ParseHistoryMode(w.History)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	sols, err := core.SolveBatch(mna.Sys, scen, w.Steps, w.TStop, core.BatchOptions{Options: core.Options{
		Workers: 1, HistoryMode: hist, FactorCache: cache,
	}})
	d := time.Since(start)
	if err != nil {
		return nil, 0, err
	}
	out := make([]float64, 0, w.Steps*count*len(idx))
	for j := 0; j < w.Steps; j++ {
		for _, sol := range sols {
			x := sol.Coefficients()
			for _, i := range idx {
				out = append(out, x.At(i, j))
			}
		}
	}
	return out, d, nil
}

// prepare computes the offline reference of every pool combination.
func (in *serveMixInst) prepare() error {
	for k, c := range in.decks.poolCombos() {
		r := in.decks.request(-k - 1)
		ref, _, err := offlineStream(r.body, nil)
		if err != nil {
			return fmt.Errorf("reference for %s/%d: %w", c.kind, c.deck, err)
		}
		in.refs[r.key] = ref
		if _, _, err := offlineStream(r.body, in.cache); err != nil {
			return err
		}
	}
	in.hits0, in.upd0, in.miss0 = in.srv.Cache().Stats()
	return nil
}

func (in *serveMixInst) verify() map[int]string {
	in.mu.Lock()
	defer in.mu.Unlock()
	bad := map[int]string{}
	for id, why := range in.bad {
		bad[id] = why
	}
	for id, vals := range in.fresh {
		ref, _, err := offlineStream(in.decks.request(id).body, nil)
		if err != nil {
			bad[id] = "reference: " + err.Error()
			continue
		}
		if why := compareStream(kindFresh, vals, ref); why != "" {
			bad[id] = why
		}
	}
	return bad
}

// traceOp records a traced op's spans and counts: the served job (from
// OnJobDone) as a child of the op, and the request's parse and stamp
// replayed.
func (in *serveMixInst) traceOp(id, root int, r mixRequest, info jobInfo, tr *tracer) {
	tr.mu.Lock()
	opSpan := tr.spans[root]
	tr.mu.Unlock()
	end := tr.t0.Add(time.Duration(opSpan.End))
	tr.add(id, root, "serve.job", end.Add(-info.dur), info.dur, false)
	tr.count("serve.job_ms", ms(info.dur))
	tr.count("serve.queue_wait_ms", ms(opSpan.dur()-info.dur))
	tr.count("core.factorizations", float64(info.rep.Factorizations))
	tr.count("core.tier_solves.sparse_lu", float64(info.rep.TierSolves[core.TierSparseLU]))
	tr.count("core.tier_solves.dense_lu", float64(info.rep.TierSolves[core.TierDenseLU]))
	tr.count("core.tier_solves.qr", float64(info.rep.TierSolves[core.TierQR]))
	tr.count("core.tier_solves.supernodal", float64(info.rep.TierSolves[core.TierSupernodal]))
	in.mu.Lock()
	in.updates += info.rep.PencilUpdates
	in.refactors += info.rep.PencilRefactors
	in.mu.Unlock()

	var w wireRequest
	if err := json.Unmarshal(r.body, &w); err != nil {
		return
	}
	t0 := time.Now()
	deck, err := circuit.Parse(strings.NewReader(w.Netlist))
	if err != nil {
		return
	}
	tr.add(id, root, "circuit.parse", t0, time.Since(t0), true)
	t0 = time.Now()
	if _, err := deck.Netlist.MNA(); err != nil {
		return
	}
	tr.add(id, root, "circuit.stamp", t0, time.Since(t0), true)
	tr.count("circuit.cards", float64(len(deck.Netlist.Elements())))
}

// layers reports the serve layer from the traced ops, the cache and SMW
// ratios over the run, the journal's cost measured against a journal-less
// server on the same requests, and the sparse layer replayed on the
// amplitude sweep's pencil.
func (in *serveMixInst) layers(tr *tracer, lt *layerTable, budget time.Duration) (map[string]float64, error) {
	v := map[string]float64{
		"circuit.parse_ms": lt.medianDur("circuit.parse"),
		"circuit.stamp_ms": lt.medianDur("circuit.stamp"),
	}
	tr.mu.Lock()
	for name, xs := range tr.counts {
		v[name] = median(xs)
	}
	tr.mu.Unlock()
	in.mu.Lock()
	if in.responses > 0 {
		v["serve.bytes_per_op"] = float64(in.bytes) / float64(in.responses)
	}
	if u := in.updates + in.refactors; u > 0 {
		v["core.update_ratio"] = float64(in.updates) / float64(u)
	}
	in.mu.Unlock()
	h, u, m := in.srv.Cache().Stats()
	if all := (h - in.hits0) + (u - in.upd0) + (m - in.miss0); all > 0 {
		v["core.cache_hit_ratio"] = float64((h-in.hits0)+(u-in.upd0)) / float64(all)
	}

	var err error
	if v["serve.journal_ms"], v["serve.overhead_ms"], err = in.serveCosts(budget / 2); err != nil {
		return nil, err
	}

	// Basis coefficients of the fractional decks' order, and the pencil and
	// sparse layer of the amplitude sweep's deck.
	bpf, err := basis.NewBPF(1024, mixLadderT)
	if err != nil {
		return nil, err
	}
	var dc []float64
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		bpf.DiffCoeffs(0.5)
		dc = append(dc, ms(time.Since(t0)))
	}
	v["basis.diffcoeffs_ms"] = median(dc)
	deck, err := circuit.Parse(strings.NewReader("amp\n" + in.decks.grid[0]))
	if err != nil {
		return nil, err
	}
	mna, err := deck.Netlist.MNA()
	if err != nil {
		return nil, err
	}
	var pencil, order, factor, col []float64
	var p sparsePass
	var a *sparse.CSR
	err = repeatFor(budget/4, func() error {
		t0 := time.Now()
		var err error
		if a, _, err = core.LeadingPencil(mna.Sys, 512, mixGridT); err != nil {
			return err
		}
		pencil = append(pencil, ms(time.Since(t0)))
		p, err = runSparse(a, false, 1, 512, 1)
		order, factor = append(order, ms(p.order)), append(factor, ms(p.factor))
		col = append(col, 1e3*ms(p.colsolve)/512)
		return err
	})
	if err != nil {
		return nil, err
	}
	v["core.pencil_ms"], v["core.pencil_nnz"] = median(pencil), float64(a.NNZ())
	v["sparse.order_ms"], v["sparse.factor_ms"], v["sparse.colsolve_us"] = median(order), median(factor), median(col)
	v["sparse.fill_nnz"] = float64(p.f.NNZFactors())
	flops, bytes := colsolveCost(p.f.NNZFactors(), a.R)
	v["sparse.colsolve_flops"], v["sparse.colsolve_bytes"] = flops, bytes
	v["sparse.colsolve_gbps_computed"] = bytes / (v["sparse.colsolve_us"] * 1e3)
	if v["sparse.panel_us_per_rhs"], err = panelUsPerRHS(p.f, 512, budget/4); err != nil {
		return nil, err
	}
	return v, nil
}

// serveCosts measures, one request at a time, each request's job time on
// the server under test, on a second journal-less server (warmed the same
// way) and as an offline SolveBatch with a warm factor cache of its own. It
// returns the medians of (journal on − off) and (served − offline).
func (in *serveMixInst) serveCosts(budget time.Duration) (journal, overhead float64, err error) {
	off := newServer("", 1)
	var mu sync.Mutex
	durs := map[string]time.Duration{}
	off.OnJobDone = func(d serve.Done) {
		mu.Lock()
		durs[d.Title] = d.Duration
		mu.Unlock()
	}
	c := <-in.clients
	defer func() { in.clients <- c }()
	for k := range in.decks.poolCombos() {
		if _, _, err := post(off, c, in.decks.request(-k-1).body); err != nil {
			return 0, 0, err
		}
	}
	var jr, ov []float64
	deadline := time.Now().Add(budget)
	for id := 1 << 24; id < 1<<24+64 && (len(jr) < 16 || time.Now().Before(deadline)); id++ {
		r := in.decks.request(id)
		if _, _, err := post(off, c, r.body); err != nil {
			return 0, 0, err
		}
		if _, _, err := post(in.srv, c, r.body); err != nil {
			return 0, 0, err
		}
		_, offline, err := offlineStream(r.body, in.cache)
		if err != nil {
			return 0, 0, err
		}
		mu.Lock()
		without := durs[r.title]
		mu.Unlock()
		in.mu.Lock()
		on := in.jobs[r.title].dur
		delete(in.jobs, r.title)
		in.mu.Unlock()
		jr = append(jr, ms(on-without))
		ov = append(ov, ms(on-offline))
	}
	return median(jr), median(ov), nil
}
