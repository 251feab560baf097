package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public API, made from the
// benchmark's own code. Spans of one op share Op; Parent is the causing
// span's ID (−1 for the op's root). A replay span re-runs, after the op, a
// step the op performed inside a coarser public call (for example the
// factorization inside core.Solve), so that the step gets a time of its own;
// it counts as a child of the call it replays.
type span struct {
	ID     int    `json:"id"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Replay bool   `json:"replay,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans and per-op counts in memory until the run ends. A nil
// *tracer records nothing, which is how untraced runs call the same code.
type tracer struct {
	t0     time.Time
	mu     sync.Mutex
	spans  []span
	counts map[string][]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: map[string][]float64{}}
}

// begin opens a span and returns its ID (−1 when tracing is off).
func (t *tracer) begin(op, parent int, name string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Op: op, Parent: parent, Name: name, Start: now, End: now})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a span measured elsewhere: a replay, or an interval the
// program reported itself (a served job's duration).
func (t *tracer) add(op, parent int, name string, start time.Time, d time.Duration, replay bool) int {
	if t == nil {
		return -1
	}
	s := start.Sub(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Op: op, Parent: parent, Name: name, Start: s, End: s + d.Nanoseconds(), Replay: replay})
	return id
}

// count records one op's value of a per-layer counter.
func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] = append(t.counts[name], v)
	t.mu.Unlock()
}

// timed runs f inside a span.
func (t *tracer) timed(op, parent int, name string, f func() error) error {
	id := t.begin(op, parent, name)
	err := f()
	t.end(id)
	return err
}

// layerRow is one line of the per-layer table.
type layerRow struct {
	name   string
	calls  int
	self   time.Duration
	replay bool
}

// layerTable aggregates spans by name: self time is a span's duration minus
// its children's. The root ("op") row's self time is the time no layer call
// covered — printed as "unattributed".
type layerTable struct {
	rows   []layerRow
	opWall time.Duration
	ops    int
	// perOp holds, per span name, each op's summed duration and self time.
	perOpDur, perOpSelf map[string][]float64
}

func (t *tracer) table() *layerTable {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	lt := &layerTable{perOpDur: map[string][]float64{}, perOpSelf: map[string][]float64{}}
	byName := map[string]*layerRow{}
	type key struct {
		op   int
		name string
	}
	dur, self := map[key]float64{}, map[key]float64{}
	var order []string
	for _, s := range t.spans {
		r := byName[s.Name]
		if r == nil {
			r = &layerRow{name: s.Name, replay: s.Replay}
			byName[s.Name] = r
			order = append(order, s.Name)
		}
		r.calls++
		r.self += s.dur() - child[s.ID]
		if s.Parent < 0 {
			lt.opWall += s.dur()
			lt.ops++
		}
		k := key{s.Op, s.Name}
		dur[k] += ms(s.dur())
		self[k] += ms(s.dur() - child[s.ID])
	}
	for _, name := range order {
		lt.rows = append(lt.rows, *byName[name])
	}
	keys := make([]key, 0, len(dur))
	for k := range dur {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].name != keys[j].name {
			return keys[i].name < keys[j].name
		}
		return keys[i].op < keys[j].op
	})
	for _, k := range keys {
		lt.perOpDur[k.name] = append(lt.perOpDur[k.name], dur[k])
		lt.perOpSelf[k.name] = append(lt.perOpSelf[k.name], self[k])
	}
	return lt
}

// medianDur is the median over ops of span name's summed duration (0 when
// the workload made no such call).
func (lt *layerTable) medianDur(name string) float64 { return median(lt.perOpDur[name]) }

// medianSelf is the median over ops of span name's self time.
func (lt *layerTable) medianSelf(name string) float64 { return median(lt.perOpSelf[name]) }

// print writes the per-layer table: self time, share of op wall time, and
// call counts, with the root's self time as "unattributed".
func (lt *layerTable) print(w io.Writer, workload string) {
	fmt.Fprintf(w, "per-layer table, %s (%d traced ops, op wall %.3f ms total)\n", workload, lt.ops, ms(lt.opWall))
	fmt.Fprintf(w, "  %-22s %8s %14s %12s %8s\n", "layer call", "calls", "self ms/op", "share", "")
	for _, r := range lt.rows {
		name, note := r.name, ""
		if name == "op" {
			name = "unattributed"
		}
		if r.replay {
			note = "replayed"
		}
		share := 0.0
		if lt.opWall > 0 {
			share = float64(r.self) / float64(lt.opWall)
		}
		per := 0.0
		if lt.ops > 0 {
			per = ms(r.self) / float64(lt.ops)
		}
		fmt.Fprintf(w, "  %-22s %8d %14.4f %11.1f%% %8s\n", name, r.calls, per, 100*share, note)
	}
}

// writeSpans writes every span as one JSON object per line.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
