package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// median returns the middle value of xs (mean of the two middle values for
// an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := len(s) / 2
	if len(s)%2 == 1 {
		return s[k]
	}
	return (s[k-1] + s[k]) / 2
}

// quartiles returns the 25th, 50th and 75th percentiles of xs by linear
// interpolation between order statistics.
func quartiles(xs []float64) [3]float64 {
	var q [3]float64
	if len(xs) == 0 {
		return q
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for i, p := range []float64{0.25, 0.5, 0.75} {
		pos := p * float64(len(s)-1)
		lo := int(pos)
		hi := lo
		if hi+1 < len(s) {
			hi++
		}
		q[i] = s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
	}
	return q
}

// tailSamples is the number of samples the tail percentile must leave
// beyond it.
const tailSamples = 10

// tail returns the value at the highest percentile that still has at least
// tailSamples samples beyond it — the (N−10)-th smallest of N — with that
// percentile. Below 2·tailSamples+1 samples that percentile would sit under
// the median; the maximum is returned instead, with percentile 100.
func tail(xs []float64) (value, pct float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	k := n - tailSamples - 1
	if k < n/2 {
		return s[n-1], 100
	}
	return s[k], 100 * float64(k+1) / float64(n)
}

// peakRSSMiB reads the process's peak resident set (VmHWM) from procfs.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line[len("VmHWM:"):])
		if len(fields) == 0 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// rtSample is a snapshot of the Go runtime counters the per-layer runtime
// metrics are differences of.
type rtSample struct {
	at             time.Time
	alloc, mallocs uint64
	gcCPU          float64
}

var gcCPUMetric = []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}

func sampleRuntime() rtSample {
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	s := rtSample{at: time.Now(), alloc: mem.TotalAlloc, mallocs: mem.Mallocs}
	gc := append([]metrics.Sample(nil), gcCPUMetric...)
	metrics.Read(gc)
	if gc[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = gc[0].Value.Float64()
	}
	return s
}

// runtimeCounter sums what the runtime did over the measured intervals.
// The GC CPU figure advances when a collection ends, so an interval counts
// the collections that ended inside it.
type runtimeCounter struct {
	alloc, mallocs uint64
	gcCPU          float64
	wall           time.Duration
}

func (c *runtimeCounter) add(a, b rtSample) {
	c.alloc += b.alloc - a.alloc
	c.mallocs += b.mallocs - a.mallocs
	c.gcCPU += b.gcCPU - a.gcCPU
	c.wall += b.at.Sub(a.at)
}

// runtimeDelta is what the runtime did per op; gcCPUFrac is GC CPU time
// over the CPU time available in the measured intervals (wall time ×
// GOMAXPROCS).
type runtimeDelta struct {
	allocMBPerOp, mallocsPerOp, gcCPUFrac float64
}

func (c runtimeCounter) perOp(ops int) runtimeDelta {
	var d runtimeDelta
	if ops > 0 {
		d.allocMBPerOp = float64(c.alloc) / float64(ops) / (1 << 20)
		d.mallocsPerOp = float64(c.mallocs) / float64(ops)
	}
	if avail := c.wall.Seconds() * float64(runtime.GOMAXPROCS(0)); avail > 0 {
		d.gcCPUFrac = c.gcCPU / avail
	}
	return d
}

// relMaxDiff returns max|a−b| / max|b| over paired slices, +Inf on a length
// mismatch or a non-finite entry.
func relMaxDiff(a, b []float64) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	var d, r float64
	for i := range a {
		if math.IsNaN(a[i]) || math.IsInf(a[i], 0) {
			return math.Inf(1)
		}
		d = math.Max(d, math.Abs(a[i]-b[i]))
		r = math.Max(r, math.Abs(b[i]))
	}
	if r == 0 {
		if d == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return d / r
}

// bitsEqual reports whether a and b hold the same float64 bit patterns.
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// digest is an FNV-1a hash over the bit patterns of xs, used to compare an
// op's output with the first output of the same input without keeping every
// output in memory.
func digest(xs []float64) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range xs {
		b := math.Float64bits(v)
		for k := 0; k < 8; k++ {
			h ^= b & 0xff
			h *= 1099511628211
			b >>= 8
		}
	}
	return h
}
