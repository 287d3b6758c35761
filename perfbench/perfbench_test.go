package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// TestWorkloads runs each workload briefly: twice on one seed and once on
// the next (the determinism check, which also requires zero failed ops
// and no wrong verdict), then once traced, whose spans must add up.
func TestWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, spec := range workloads {
		spec := spec
		t.Run(spec.name, func(t *testing.T) {
			dir := t.TempDir()
			var log strings.Builder
			if err := checkDeterminism(spec, 7, dir, &log); err != nil {
				t.Fatalf("%v\n%s", err, log.String())
			}
			w, err := spec.setup(7, dir)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := w.run(runConfig{seconds: time.Second, traced: true})
			w.close()
			if err != nil {
				t.Fatal(err)
			}
			if rep.attempted == 0 || rep.failed != 0 || len(rep.wrong) > 0 {
				t.Fatalf("traced run: %d attempted, %d failed, wrong: %v", rep.attempted, rep.failed, rep.wrong)
			}
			if len(rep.traceProblems) > 0 {
				t.Fatalf("trace does not add up: %v", rep.traceProblems)
			}
			if g := rep.layer["trace.gap_share"]; g < 0 || g >= 1 {
				t.Errorf("trace.gap_share = %v, want a share in [0, 1)", g)
			}
		})
	}
}

// TestBenchmarkFile checks that BENCHMARK.json names exactly the metrics
// the benchmark prints, with the same units, and every workload.
func TestBenchmarkFile(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(b.Workloads), len(workloads))
	}
	check := func(kind string, listed []struct{ Name, Unit string }, printed map[string]metric) {
		for _, m := range listed {
			if p, ok := printed[m.Name]; !ok || p.Unit != m.Unit {
				t.Errorf("%s metric %q (%s): printed as %+v", kind, m.Name, m.Unit, p)
			}
		}
		if len(listed) != len(printed) {
			t.Errorf("BENCHMARK.json lists %d %s metrics, the benchmark prints %d", len(listed), kind, len(printed))
		}
	}
	check("end-to-end", b.EndToEnd, endToEndMetrics(newReport(), 1))
	check("per-layer", b.PerLayer, layerMetrics(newReport()))
}

func TestCovered(t *testing.T) {
	for _, c := range []struct {
		iv   [][2]int64
		want int64
	}{
		{nil, 0},
		{[][2]int64{{0, 10}}, 10},
		{[][2]int64{{5, 10}, {0, 3}}, 8},
		{[][2]int64{{0, 10}, {2, 4}, {8, 12}}, 12},
	} {
		if got := covered(c.iv); got != c.want {
			t.Errorf("covered(%v) = %d, want %d", c.iv, got, c.want)
		}
	}
}
