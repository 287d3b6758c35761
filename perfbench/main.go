// Command perfbench is the repository benchmark. It runs one workload for a
// fixed time against the solver, the qbfd service and the qbfgate front
// tier, all in this process, checks every verdict, and prints one JSON
// result line:
//
//	perfbench --workload table1-solve --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// it holds the per-layer metrics of a separate traced run. The exact
// counts of the run (decisions, cache hits, journal appends) go to
// standard error. --determinism runs the workload twice with one seed and
// once with the next seed, and fails if a count differs between the first
// two or the instances do not differ in the third. README.md in this
// directory defines every metric and workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// A run builds its workload at least minSetups times and until set-up has
// taken setupBudget in all (at most maxSetups times); setup_s is the
// median, which keeps one slow set-up from moving the metric.
const (
	minSetups   = 5
	maxSetups   = 25
	setupBudget = time.Second
)

// workload is one prepared set of inputs together with whatever serves
// them; run measures it and close releases it.
type workload interface {
	run(cfg runConfig) (*report, error)
	close()
}

// workloadSpec names a workload and builds it from a seed; the workload
// may create files under workDir.
type workloadSpec struct {
	name  string
	setup func(seed int64, workDir string) (workload, error)
}

var workloads = []workloadSpec{
	{"table1-solve", setupTable1},
	{"gate-mix", setupGateMix},
	{"session-sweep", setupSession},
}

// runConfig is one measured run.
type runConfig struct {
	seconds time.Duration
	traced  bool
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: table1-solve, gate-mix or session-sweep")
	seed := fs.Int64("seed", 1, "seed every input is derived from")
	seconds := fs.Int("seconds", 30, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	determinism := fs.Bool("determinism", false, "run twice with one seed and once with the next; fail if a count differs or the instances do not")
	work := fs.String("work", ".bench_build/work", "directory for journals and the span file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: want --workload %s, --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if *determinism {
		if err := checkDeterminism(spec, *seed, *work, stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench: determinism check failed:", err)
			return 1
		}
		fmt.Fprintln(stderr, "perfbench: determinism check passed")
		return 0
	}

	cfg := runConfig{seconds: time.Duration(*seconds) * time.Second, traced: *trace == 1}
	w, setupS, err := setupMedian(spec, *seed, *work)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: set-up:", err)
		return 1
	}
	rep, err := w.run(cfg)
	w.close()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	printCounts(stderr, spec.name, *seed, rep.counts)
	for _, msg := range rep.wrong {
		fmt.Fprintln(stderr, "perfbench: WRONG", msg)
	}
	var metrics map[string]metric
	if cfg.traced {
		metrics = layerMetrics(rep)
		if err := rep.spans.writeFile(filepath.Join(*work, "spans-"+spec.name+".jsonl")); err != nil {
			fmt.Fprintln(stderr, "perfbench: writing spans:", err)
		}
		for _, msg := range rep.traceProblems {
			fmt.Fprintln(stderr, "perfbench: trace check:", msg)
		}
	} else {
		metrics = endToEndMetrics(rep, setupS)
	}
	out := resultLine{Correct: len(rep.wrong) == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: metrics}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, s := range workloads {
		if s.name == name {
			return s, true
		}
	}
	return workloadSpec{}, false
}

func workloadNames() string {
	var names []string
	for _, s := range workloads {
		names = append(names, s.name)
	}
	return strings.Join(names, "|")
}

// setupMedian builds the workload repeatedly, keeps the last build and
// returns the median set-up time in seconds.
func setupMedian(spec workloadSpec, seed int64, workDir string) (workload, float64, error) {
	var times []float64
	var total time.Duration
	var w workload
	for len(times) < minSetups || (total < setupBudget && len(times) < maxSetups) {
		if w != nil {
			w.close()
		}
		t0 := time.Now()
		var err error
		w, err = spec.setup(seed, workDir)
		if err != nil {
			return nil, 0, err
		}
		d := time.Since(t0)
		total += d
		times = append(times, d.Seconds())
	}
	return w, median(times), nil
}

// checkDeterminism runs one short window twice on the same seed and once
// on the next seed. The counts of the first two must match exactly, and
// the next seed must build different instances.
func checkDeterminism(spec workloadSpec, seed int64, workDir string, stderr io.Writer) error {
	short := runConfig{seconds: time.Second}
	var reps [3]*report
	for i, s := range []int64{seed, seed, seed + 1} {
		w, err := spec.setup(s, workDir)
		if err != nil {
			return err
		}
		rep, err := w.run(short)
		w.close()
		if err != nil {
			return err
		}
		if len(rep.wrong) > 0 || rep.failed > 0 {
			return fmt.Errorf("seed %d: %d wrong verdicts, %d failed ops", s, len(rep.wrong), rep.failed)
		}
		printCounts(stderr, spec.name, s, rep.counts)
		reps[i] = rep
	}
	if diff := countDiff(reps[0].counts, reps[1].counts); diff != "" {
		return fmt.Errorf("seed %d repeated: %s", seed, diff)
	}
	if reps[0].fingerprint == reps[2].fingerprint {
		return fmt.Errorf("seeds %d and %d built the same instances", seed, seed+1)
	}
	return nil
}

func countDiff(a, b map[string]int64) string {
	var diffs []string
	for k, v := range a {
		if b[k] != v {
			diffs = append(diffs, fmt.Sprintf("%s %d vs %d", k, v, b[k]))
		}
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			diffs = append(diffs, k+" missing in first run")
		}
	}
	sort.Strings(diffs)
	return strings.Join(diffs, "; ")
}

func printCounts(w io.Writer, name string, seed int64, counts map[string]int64) {
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, counts[k])
	}
	fmt.Fprintf(w, "perfbench: %s seed %d exact counts: %s\n", name, seed, strings.Join(parts, " "))
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// logf writes a progress line to standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format, args...)
}
