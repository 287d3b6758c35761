package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// its own call. Spans of one op share Op; Parent names the enclosing span
// of the same op ("" for the op itself).
type span struct {
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay only the nil check.
type tracer struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) record(op int64, name, parent string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{Op: op, Name: name, Parent: parent, Start: int64(start.Sub(t.base)), End: int64(end.Sub(t.base))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// writeFile writes the spans as JSON lines.
func (t *tracer) writeFile(path string) error {
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

// selfTime is one span's duration minus the part its children cover.
type selfTime struct {
	name     string
	self     time.Duration
	children int
}

// traceSummary is the analysis of a run's spans.
type traceSummary struct {
	spans []selfTime
	// gapShare is the share of op latency no child span covers.
	gapShare float64
	// problems lists ops whose self times do not add up to their latency:
	// a child span outside its parent, or children overlapping.
	problems []string
}

// selfByName returns the self times of the spans called name, keeping
// only those with children when withChildren is set.
func (s traceSummary) selfByName(name string, withChildren bool) []time.Duration {
	var out []time.Duration
	for _, st := range s.spans {
		if st.name == name && (!withChildren || st.children > 0) {
			out = append(out, st.self)
		}
	}
	return out
}

// analyze computes self times and checks that, for every op, the self
// times of its spans add up to the op's own span, which the workloads
// record over exactly the interval they time as the op's latency.
func (t *tracer) analyze() traceSummary {
	var sum traceSummary
	if t == nil {
		return sum
	}
	t.mu.Lock()
	byOp := map[int64][]span{}
	for _, s := range t.spans {
		byOp[s.Op] = append(byOp[s.Op], s)
	}
	t.mu.Unlock()
	var rootTotal, gapTotal int64
	bad := 0
	var example string
	for op, spans := range byOp {
		var root *span
		var selfSum int64
		for i := range spans {
			s := &spans[i]
			if s.Parent == "" {
				root = s
			}
			var kids [][2]int64
			for _, c := range spans {
				if c.Parent == s.Name {
					kids = append(kids, [2]int64{c.Start, c.End})
				}
			}
			self := (s.End - s.Start) - covered(kids)
			selfSum += self
			sum.spans = append(sum.spans, selfTime{name: s.Name, self: time.Duration(self), children: len(kids)})
			if s.Parent == "" {
				gapTotal += self
			}
			for _, k := range kids {
				if k[0] < s.Start || k[1] > s.End {
					selfSum = -1 << 62 // a child outside its parent
				}
			}
		}
		if root == nil {
			bad++
			example = fmt.Sprintf("op %d has no root span", op)
			continue
		}
		rootTotal += root.End - root.Start
		if d := selfSum - (root.End - root.Start); d < -1000 || d > 1000 {
			bad++
			example = fmt.Sprintf("op %d: self times sum to %dns, op span is %dns", op, selfSum, root.End-root.Start)
		}
	}
	if rootTotal > 0 {
		sum.gapShare = float64(gapTotal) / float64(rootTotal)
	}
	if bad > 0 {
		sum.problems = append(sum.problems, fmt.Sprintf("%d of %d ops do not add up, e.g. %s", bad, len(byOp), example))
	}
	return sum
}

// covered returns the length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cur := iv[0]
	for _, x := range iv[1:] {
		if x[0] > cur[1] {
			total += cur[1] - cur[0]
			cur = x
			continue
		}
		if x[1] > cur[1] {
			cur[1] = x[1]
		}
	}
	return total + cur[1] - cur[0]
}
