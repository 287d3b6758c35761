package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line the benchmark prints.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is what one workload run measured.
type report struct {
	// attempted and failed count the ops of the measured windows. An op
	// still in flight when a window closes is in neither.
	attempted, failed int64
	// decided counts TRUE/FALSE verdicts among the completed ops.
	decided int64
	// wrong names each formula whose verdict disagreed with its reference.
	wrong []string
	// latP50 and latP99 are the op latency percentiles, each workload
	// taking them with the estimator its README section names.
	latP50, latP99 time.Duration
	// opsPerS is the throughput: completed ops per second for the
	// closed-loop workloads, the highest sustained rate for gate-mix.
	opsPerS float64
	// counts are the exact, seed-determined counts of the run.
	counts map[string]int64
	// layer holds the per-layer metrics the workload measured.
	layer map[string]float64
	// fingerprint identifies the generated instances.
	fingerprint uint64
	// spans and traceProblems come from a traced run only.
	spans         *tracer
	traceProblems []string
}

// attachTrace keeps a traced run's spans and records what their analysis
// found; it returns the analysis for metrics of the workload's own.
func (r *report) attachTrace(tr *tracer) traceSummary {
	sum := tr.analyze()
	r.spans, r.traceProblems = tr, sum.problems
	r.layer["trace.gap_share"] = sum.gapShare
	return sum
}

func newReport() *report {
	return &report{counts: map[string]int64{}, layer: map[string]float64{}}
}

// endToEndMetrics are the metrics a user of the system sees.
func endToEndMetrics(rep *report, setupS float64) map[string]metric {
	completed := rep.attempted - rep.failed
	decided := 0.0
	if completed > 0 {
		decided = float64(rep.decided) / float64(completed)
	}
	return map[string]metric{
		"setup_s":       {setupS, "s"},
		"ops_per_s":     {rep.opsPerS, "1/s"},
		"lat_p50_ms":    {ms(rep.latP50), "ms"},
		"lat_p99_ms":    {ms(rep.latP99), "ms"},
		"decided_share": {decided, "share"},
		"peak_rss_mb":   {peakRSSMB(), "MB"},
	}
}

// layerUnits lists every per-layer metric with its unit. A workload that
// does not exercise a layer reports 0 for it.
var layerUnits = map[string]string{
	"core.decisions":              "count",
	"core.conflicts":              "count",
	"core.solutions":              "count",
	"core.propagations":           "count",
	"core.props_per_s":            "1/s",
	"core.build_us_p50":           "us",
	"core.solve_s_po":             "s",
	"core.solve_s_to":             "s",
	"core.decisions_per_call":     "count",
	"core.inc_one_decision_ratio": "ratio",
	"prenex.apply_s":              "s",
	"qdimacs.read_us_p50":         "us",
	"server.handler_ms_p50":       "ms",
	"server.handler_ms_p99":       "ms",
	"server.decode_us_p50":        "us",
	"server.queue_ms_p99":         "ms",
	"server.shed":                 "count",
	"server.session_open_ms_p50":  "ms",
	"journal.appends_per_call":    "count",
	"journal.bytes_per_call":      "bytes",
	"journal.segments":            "count",
	"journal.compactions":         "count",
	"gate.hit_share":              "share",
	"gate.coalesced":              "count",
	"gate.hedges":                 "count",
	"gate.hedge_wins":             "count",
	"gate.failovers":              "count",
	"gate.hit_ms_p50":             "ms",
	"gate.miss_ms_p50":            "ms",
	"gate.miss_ms_p99":            "ms",
	"gate.self_ms_p50":            "ms",
	"gate.key_us_p50":             "us",
	"transport.rtt_us_p50":        "us",
	"loadgen.late_ms_p99":         "ms",
	"runtime.alloc_kb_per_op":     "KiB",
	"runtime.gc_cycles":           "count",
	"runtime.gc_pause_ms_total":   "ms",
	"trace.overhead_share":        "share",
	"trace.gap_share":             "share",
}

func layerMetrics(rep *report) map[string]metric {
	out := make(map[string]metric, len(layerUnits))
	for name, unit := range layerUnits {
		out[name] = metric{rep.layer[name], unit}
	}
	return out
}

// quantile returns the nearest-rank q-quantile of d (0 when d is empty).
func quantile(d []time.Duration, q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// blockQuantiles cuts lat, in the order it was measured, into blocks of
// size samples and returns the median over the blocks of each block's
// p50 and p99. A slow second of the machine then moves one block, not the
// result. Callers choose blocks that repeat the same ops, at least 1000 of
// them, so that ten samples lie beyond each block's p99.
func blockQuantiles(lat []time.Duration, size int) (p50, p99 time.Duration) {
	if len(lat) < 2*size {
		return quantile(lat, 0.5), quantile(lat, 0.99)
	}
	var b50, b99 []time.Duration
	for i := 0; i+size <= len(lat); i += size {
		b50 = append(b50, quantile(lat[i:i+size], 0.5))
		b99 = append(b99, quantile(lat[i:i+size], 0.99))
	}
	return quantile(b50, 0.5), quantile(b99, 0.5)
}

// median returns the middle value, or the mean of the middle two.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// overheadShare compares the latencies of the traced and untraced ops of
// one traced run: median traced over median untraced, minus one.
func overheadShare(traced, untraced []time.Duration) float64 {
	u := quantile(untraced, 0.5)
	if u == 0 {
		return 0
	}
	return float64(quantile(traced, 0.5))/float64(u) - 1
}

// memWindow measures the Go runtime over one measured window.
type memWindow struct{ before runtime.MemStats }

func startMem() *memWindow {
	m := &memWindow{}
	runtime.ReadMemStats(&m.before)
	return m
}

// stop records the allocation and GC deltas per op into layer.
func (m *memWindow) stop(ops int64, layer map[string]float64) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if ops > 0 {
		layer["runtime.alloc_kb_per_op"] = float64(after.TotalAlloc-m.before.TotalAlloc) / 1024 / float64(ops)
	}
	layer["runtime.gc_cycles"] = float64(after.NumGC - m.before.NumGC)
	layer["runtime.gc_pause_ms_total"] = float64(after.PauseTotalNs-m.before.PauseTotalNs) / 1e6
}
