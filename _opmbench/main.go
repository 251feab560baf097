// Command benchmark drives the OPM simulator's public entry points from
// generated netlist text to the last waveform column (offline workloads) or
// to the last NDJSON byte of a served job (serve-mix), and prints
// end-to-end metrics (--trace 0) or the per-layer table (--trace 1). The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it through run.sh, which builds it from the checkout's source:
//
//	bash _opmbench/run.sh --workload grid-tableii --seed 1 --seconds 30 --trace 0
//
// See README.md in this directory for the workloads, the metrics and the
// layers each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// metricDef names one reported metric.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics of a --trace 0 run, in print order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"ttfc_p50_ms", "ms"},
	{"ttfc_tail_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"success_ratio", "ratio"},
	{"peak_rss_mb", "MiB"},
}

// perLayer lists the metrics of a --trace 1 run, in print order.
var perLayer = []metricDef{
	{"circuit.parse_ms", "ms"},
	{"circuit.stamp_ms", "ms"},
	{"circuit.cards", "count"},
	{"basis.diffcoeffs_ms", "ms"},
	{"core.pencil_ms", "ms"},
	{"core.pencil_nnz", "count"},
	{"sparse.order_ms", "ms"},
	{"sparse.factor_ms", "ms"},
	{"sparse.fill_nnz", "count"},
	{"sparse.bbd_parts", "count"},
	{"sparse.bbd_iface_n", "count"},
	{"sparse.factor_ms.w1", "ms"},
	{"sparse.factor_speedup", "ratio"},
	{"sparse.colsolve_us", "us"},
	{"sparse.colsolve_flops", "count"},
	{"sparse.colsolve_bytes", "B"},
	{"sparse.colsolve_gbps_computed", "GB/s"},
	{"sparse.panel_us_per_rhs", "us"},
	{"core.solve_ms", "ms"},
	{"core.march_self_ms", "ms"},
	{"core.factorizations", "count"},
	{"core.tier_solves.sparse_lu", "count"},
	{"core.tier_solves.dense_lu", "count"},
	{"core.tier_solves.qr", "count"},
	{"core.tier_solves.supernodal", "count"},
	{"core.cache_hit_ratio", "ratio"},
	{"core.update_ratio", "ratio"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.job_ms", "ms"},
	{"serve.overhead_ms", "ms"},
	{"serve.journal_ms", "ms"},
	{"serve.bytes_per_op", "B"},
	{"runtime.alloc_mb_per_op", "MiB"},
	{"runtime.mallocs_per_op", "count"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"trace.overhead_pct", "%"},
	{"trace.unattributed_ms", "ms"},
}

// opStat is what the closed loop learns from one op.
type opStat struct {
	id        int
	kind      string // request kind, on workloads that mix kinds
	lat, ttfc time.Duration
	err       error
}

// instance is one set-up workload: its generated inputs, any server, and
// the outputs recorded for checking.
type instance interface {
	// prepare computes what checking needs before the timed ops, outside
	// the set-up time.
	prepare() error
	// settle runs before each timed op, outside its latency but inside the
	// closed loop's wall time.
	settle()
	// op runs op id. tr is nil in untraced runs.
	op(id int, tr *tracer) opStat
	// verify checks every recorded output against its reference and
	// returns the failing op ids with the reason.
	verify() map[int]string
	// layers measures what the per-layer table needs beyond the traced ops'
	// spans, within roughly budget, and returns the per-layer metrics.
	layers(tr *tracer, lt *layerTable, budget time.Duration) (map[string]float64, error)
	close()
}

// workload is a named input family and its load shape.
type workload struct {
	name    string
	clients int
	workers int // core.Options.Workers of each solve (0 = GOMAXPROCS)
	setup   func(seed uint64) (instance, error)
}

func workloads() []workload {
	return []workload{gridTableII(), gridLarge(), fraclineHistory(), serveMix()}
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// loopResult is one closed-loop phase.
type loopResult struct {
	stats []opStat
	wall  time.Duration
	rt    runtimeDelta
}

// closedLoop runs clients goroutines, each sending its next op only after
// the previous one completed, until dur has passed; ops in flight then run
// to completion. Op ids come from next, so phases of one run never reuse an
// id. With counters set it also counts what the Go runtime did: with one
// client around each op alone, leaving out settle (the forced collection
// of the offline workloads); with more clients, whose workload settles
// nothing, over the whole loop.
func closedLoop(inst instance, clients int, dur time.Duration, tr *tracer, next *atomic.Int64, counters bool) loopResult {
	perOp := counters && clients == 1
	var rc runtimeCounter
	var loopStart rtSample
	if counters && !perOp {
		loopStart = sampleRuntime()
	}
	start := time.Now()
	var mu sync.Mutex
	var stats []opStat
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < dur {
				inst.settle()
				var before rtSample
				if perOp {
					before = sampleRuntime()
				}
				st := inst.op(int(next.Add(1)-1), tr)
				if perOp {
					rc.add(before, sampleRuntime())
				}
				mu.Lock()
				stats = append(stats, st)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	if counters && !perOp {
		rc.add(loopStart, sampleRuntime())
	}
	sort.Slice(stats, func(i, j int) bool { return stats[i].id < stats[j].id })
	return loopResult{stats: stats, wall: wall, rt: rc.perOp(len(stats))}
}

// setupRepeats is how many times a --trace 0 run sets the workload up; the
// median is setup_s.
const setupRepeats = 5

// setupTimed builds one instance and warms it up with one untimed op that
// must succeed.
func setupTimed(w workload, seed uint64) (instance, time.Duration, error) {
	start := time.Now()
	inst, err := w.setup(seed)
	if err != nil {
		return nil, 0, err
	}
	if st := inst.op(-1, nil); st.err != nil {
		inst.close()
		return nil, 0, fmt.Errorf("warm-up op: %w", st.err)
	}
	return inst, time.Since(start), nil
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runConfig is one invocation.
type runConfig struct {
	workload workload
	seed     uint64
	seconds  float64
	trace    bool
	spansDir string
}

// runRecord describes the host and settings so later rows compare like
// with like.
func runRecord(cfg runConfig) map[string]any {
	return map[string]any{
		"workload":   cfg.workload.name,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"workers":    cfg.workload.workers,
		"clients":    cfg.workload.clients,
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.Index(line, ":"); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return "unknown"
}

// run executes one invocation, printing the human-readable report to out
// and returning the result object.
func run(cfg runConfig, out io.Writer) (*result, error) {
	rec, _ := json.Marshal(runRecord(cfg))
	fmt.Fprintf(out, "run %s\n", rec)
	if cfg.trace {
		return runTraced(cfg, out)
	}
	return runUntraced(cfg, out)
}

func runUntraced(cfg runConfig, out io.Writer) (*result, error) {
	w := cfg.workload
	var setups []float64
	var inst instance
	for r := 0; r < setupRepeats; r++ {
		if inst != nil {
			inst.close()
		}
		in, d, err := setupTimed(w, cfg.seed)
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", w.name, err)
		}
		inst = in
		setups = append(setups, d.Seconds())
	}
	defer inst.close()
	if err := inst.prepare(); err != nil {
		return nil, fmt.Errorf("%s references: %w", w.name, err)
	}

	var next atomic.Int64
	lr := closedLoop(inst, w.clients, time.Duration(cfg.seconds*float64(time.Second)), nil, &next, false)
	rss := peakRSSMiB()
	bad := inst.verify()

	ok, failed := tally(out, lr.stats, bad)
	var lat, ttfc []float64
	for _, st := range ok {
		lat = append(lat, ms(st.lat))
		ttfc = append(ttfc, ms(st.ttfc))
	}
	attempted := len(lr.stats)
	opTail, opPct := tail(lat)
	ttTail, ttPct := tail(ttfc)
	vals := map[string]float64{
		"setup_s":       median(setups),
		"op_p50_ms":     median(lat),
		"op_tail_ms":    opTail,
		"ttfc_p50_ms":   median(ttfc),
		"ttfc_tail_ms":  ttTail,
		"ops_per_s":     float64(attempted-failed) / lr.wall.Seconds(),
		"success_ratio": 1 - float64(failed)/float64(attempted),
		"peak_rss_mb":   rss,
	}
	fmt.Fprintf(out, "samples: setup %d, op %d, ttfc %d; op_tail_ms is p%.2f, ttfc_tail_ms is p%.2f (%d samples beyond each)\n",
		len(setups), len(lat), len(ttfc), opPct, ttPct, tailSamples)
	q := quartiles(lat)
	fmt.Fprintf(out, "op latency quartiles %.3f / %.3f / %.3f ms, closed-loop wall %.3f s\n", q[0], q[1], q[2], lr.wall.Seconds())
	fmt.Fprintf(out, "error_rate %.6f (%d of %d ops failed or were incorrect)\n", float64(failed)/float64(attempted), failed, attempted)
	printKinds(out, ok)
	return report(out, endToEnd, vals, attempted, failed), nil
}

func runTraced(cfg runConfig, out io.Writer) (*result, error) {
	w := cfg.workload
	inst, _, err := setupTimed(w, cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("%s setup: %w", w.name, err)
	}
	defer inst.close()
	if err := inst.prepare(); err != nil {
		return nil, fmt.Errorf("%s references: %w", w.name, err)
	}
	total := time.Duration(cfg.seconds * float64(time.Second))

	// Untraced baseline for the overhead figure and the runtime counters,
	// then the traced ops, then whatever extra measurements the layers need.
	var next atomic.Int64
	base := closedLoop(inst, w.clients, total*3/10, nil, &next, true)
	tr := newTracer()
	traced := closedLoop(inst, w.clients, total*4/10, tr, &next, false)
	lt := tr.table()
	vals, err := inst.layers(tr, lt, total*3/10)
	if err != nil {
		return nil, fmt.Errorf("%s per-layer measurement: %w", w.name, err)
	}
	bad := inst.verify()

	all := append(append([]opStat(nil), base.stats...), traced.stats...)
	ok, failed := tally(out, all, bad)
	p50 := func(ss []opStat) float64 {
		var l []float64
		for _, st := range ss {
			l = append(l, ms(st.lat))
		}
		return median(l)
	}
	if b := p50(base.stats); b > 0 {
		vals["trace.overhead_pct"] = 100 * (p50(traced.stats) - b) / b
	}
	vals["trace.unattributed_ms"] = lt.medianSelf("op")
	vals["runtime.alloc_mb_per_op"] = base.rt.allocMBPerOp
	vals["runtime.mallocs_per_op"] = base.rt.mallocsPerOp
	vals["runtime.gc_cpu_frac"] = base.rt.gcCPUFrac

	lt.print(out, w.name)
	printKinds(out, ok)
	fmt.Fprintf(out, "ops: %d untraced, %d traced; runtime counters from the untraced ops\n", len(base.stats), len(traced.stats))
	if cfg.spansDir != "" {
		if err := os.MkdirAll(cfg.spansDir, 0o755); err != nil {
			return nil, err
		}
		path := filepath.Join(cfg.spansDir, fmt.Sprintf("spans-%s-seed%d.ndjson", w.name, cfg.seed))
		if err := tr.writeSpans(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "spans written to %s\n", path)
	}
	return report(out, perLayer, vals, len(all), failed), nil
}

// tally splits ops into those that succeeded with correct output and a
// count of the rest — failed, refused, or outputs that failed their check —
// printing why each of the rest failed.
func tally(out io.Writer, stats []opStat, bad map[int]string) (ok []opStat, failed int) {
	for _, st := range stats {
		switch why, incorrect := bad[st.id]; {
		case st.err != nil:
			failed++
			fmt.Fprintf(out, "op %d failed: %v\n", st.id, st.err)
		case incorrect:
			failed++
			fmt.Fprintf(out, "op %d output incorrect: %s\n", st.id, why)
		default:
			ok = append(ok, st)
		}
	}
	return ok, failed
}

// printKinds prints, on a workload that mixes request kinds, each kind's
// op count, median latency and time to first column, and share of the
// summed op latency.
func printKinds(out io.Writer, stats []opStat) {
	type agg struct {
		lat, ttfc []float64
		sum       float64
	}
	byKind := map[string]*agg{}
	var kinds []string
	var total float64
	for _, st := range stats {
		if st.kind == "" {
			continue
		}
		a := byKind[st.kind]
		if a == nil {
			a = &agg{}
			byKind[st.kind] = a
			kinds = append(kinds, st.kind)
		}
		a.lat = append(a.lat, ms(st.lat))
		a.ttfc = append(a.ttfc, ms(st.ttfc))
		a.sum += ms(st.lat)
		total += ms(st.lat)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		a := byKind[k]
		fmt.Fprintf(out, "kind %-6s %6d ops  op p50 %10.3f ms  ttfc p50 %9.3f ms  %5.1f%% of op time\n",
			k, len(a.lat), median(a.lat), median(a.ttfc), 100*a.sum/total)
	}
}

// report prints every metric of defs by name and unit and builds the
// result object. A metric a workload does not exercise reads 0 and is
// marked n/a.
func report(out io.Writer, defs []metricDef, vals map[string]float64, attempted, failed int) *result {
	res := &result{Correct: failed == 0 && attempted > 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := vals[d.name]
		note := ""
		if !ok {
			note = "  (n/a on this workload)"
		}
		fmt.Fprintf(out, "  %-32s %16.6g %-6s%s\n", d.name, v, d.unit, note)
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return res
}

func main() {
	name := flag.String("workload", "", "workload name: grid-tableii, grid-large, fracline-history or serve-mix")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 30, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	spansDir := flag.String("spans-dir", "", "directory for the traced run's spans (one NDJSON file per run)")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "--trace must be 0 or 1")
		os.Exit(2)
	}
	res, err := run(runConfig{workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1, spansDir: *spansDir}, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
