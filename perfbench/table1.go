package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/prenex"
	"repro/internal/qbf"
)

// t1NodeLimit is the decision budget of every table1-solve solve. A
// decision budget, unlike a time budget, leaves the same solves undecided
// on every run, so the counts and decided_share repeat exactly.
const t1NodeLimit = 3000

// t1Scale sizes the pool: qbfbench's default scale with more NCF
// instances per grid cell and more FPV, PROB and FIXED seeds, and the DIA
// models of its smoke scale. The default scale's larger DIA models
// (counter3, semaphore7, DME5 and others) add about fourteen TO solves of
// 100-230 ms above a dense band of NCF solves near 20-30 ms; lat_p99_ms,
// the fourteenth costliest solve, then sat on that cliff.
var t1Scale = func() bench.Scale {
	s := bench.ScaleDefault
	s.PerCell, s.FPVSeeds, s.EvalSeeds = 8, 5, 5
	s.DIAMaxBits = bench.ScaleSmoke.DIAMaxBits
	return s
}()

// t1Inst is one Table I instance: the tree QUBE(PO) solves and the
// ∃↑∀↑ prenex form QUBE(TO) solves.
type t1Inst struct {
	name     string
	tree, to *qbf.QBF
}

type table1 struct {
	insts       []t1Inst
	applyS      float64
	fingerprint uint64
}

// setupTable1 builds the Table I pool from qbfbench's suites at t1Scale.
// The seed renames the variables of every instance and orders the pool.
// Renaming keeps each instance's size and hardness, so another seed gives
// other formulas and another search order through them, but about the
// same amount of work per pass.
func setupTable1(seed int64, _ string) (workload, error) {
	t := &table1{}
	rng := rand.New(rand.NewSource(seed))
	// NCF, FPV and DIA (Table I rows 1-6) are trees: the renamed tree is
	// prenexed ∃↑∀↑ here, so that prenex.apply_s times that step alone.
	for _, suite := range [][]bench.Instance{bench.NCFSuite(t1Scale), bench.FPVSuite(t1Scale), bench.DIASuite(t1Scale)} {
		for _, in := range suite {
			tree := renamed(in.Tree, rng)
			t0 := time.Now()
			to := prenex.Apply(tree, prenex.EUpAUp)
			t.applyS += time.Since(t0).Seconds()
			t.insts = append(t.insts, t1Inst{in.Name, tree, to})
		}
	}
	// PROB and FIXED (rows 7-8) are prenex originals kept when miniscoping
	// gives a tree with enough partial order (footnote 9); PO solves the
	// tree and TO the original, both under one renaming.
	for _, suite := range [][]bench.Instance{bench.EvalSuite(t1Scale, false), bench.EvalSuite(t1Scale, true)} {
		for _, in := range suite {
			orig := in.Prenex[prenex.EUpAUp]
			perm := permutation(max(orig.MaxVar(), in.Tree.MaxVar()), rng)
			t.insts = append(t.insts, t1Inst{in.Name, qbf.Rename(in.Tree, perm), qbf.Rename(orig, perm)})
		}
	}
	rng.Shuffle(len(t.insts), func(i, j int) { t.insts[i], t.insts[j] = t.insts[j], t.insts[i] })
	t.fingerprint = fingerprint(t.insts)
	return t, nil
}

func fingerprint(insts []t1Inst) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, in := range insts {
		for _, c := range in.tree.Matrix {
			for _, l := range c {
				v := uint64(int64(l))
				for i := range buf {
					buf[i] = byte(v >> (8 * i))
				}
				h.Write(buf[:])
			}
		}
	}
	return h.Sum64()
}

func (t *table1) close() {}

// t1Op is one solve of the pass: instance inst in mode PO or TO.
type t1Op struct {
	inst int
	mode core.Mode
}

// t1Outcome is one solve: what it decided, compared across passes, and
// how long building the solver and solving took.
type t1Outcome struct {
	verdict      core.Verdict
	stats        core.Stats
	build, solve time.Duration
}

// run solves the pool in passes from one goroutine until a pass ends after
// the window length. Whole passes keep every count exact.
func (t *table1) run(cfg runConfig) (*report, error) {
	ctx := context.Background()
	// ops[2i] is instance i's PO solve and ops[2i+1] its TO solve.
	ops := make([]t1Op, 0, 2*len(t.insts))
	for i := range t.insts {
		ops = append(ops, t1Op{i, core.ModePartialOrder}, t1Op{i, core.ModeTotalOrder})
	}
	// Each pass visits the instances in a new order, PO and TO of one
	// instance back to back, first one then the other. The garbage
	// collector's cycles follow the allocation sequence, so a fixed order
	// would slow the same solves in every pass.
	passOrder := func(pass int) []int {
		rng := rand.New(rand.NewSource(int64(pass)))
		order := make([]int, 0, len(ops))
		for _, i := range rng.Perm(len(t.insts)) {
			order = append(order, 2*i+pass%2, 2*i+1-pass%2)
		}
		return order
	}
	rep := newReport()
	rep.fingerprint = t.fingerprint
	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	solve := func(op t1Op, id int64, traced bool) (t1Outcome, error) {
		q := t.insts[op.inst].tree
		if op.mode == core.ModeTotalOrder {
			q = t.insts[op.inst].to
		}
		t0 := time.Now()
		s, err := core.NewSolver(q, core.Options{Mode: op.mode, NodeLimit: t1NodeLimit})
		if err != nil {
			return t1Outcome{}, err
		}
		t1 := time.Now()
		v := s.Solve(ctx)
		t2 := time.Now()
		if traced {
			tr.record(id, "op", "", t0, t2)
			tr.record(id, "core.NewSolver", "op", t0, t1)
			tr.record(id, "core.Solve", "op", t1, t2)
		}
		return t1Outcome{v, s.Stats(), t1.Sub(t0), t2.Sub(t1)}, nil
	}

	// Warm-up: a quarter of a pass, untimed.
	for _, op := range ops[:len(ops)/4] {
		if _, err := solve(op, -1, false); err != nil {
			return nil, fmt.Errorf("%s: %w", t.insts[op.inst].name, err)
		}
	}

	first := make([]t1Outcome, len(ops))
	opLat := make([][]time.Duration, len(ops))
	var builds []time.Duration
	var solveTime [2]time.Duration
	var props int64
	var tracedLat, untracedLat []time.Duration
	var passWall []time.Duration
	passes := 0
	mw := startMem()
	start := time.Now()
	for ; passes < 2 || time.Since(start) < cfg.seconds; passes++ {
		passStart := time.Now()
		for _, j := range passOrder(passes) {
			op := ops[j]
			id := int64(passes*len(ops) + j)
			traced := cfg.traced && (j+passes)%2 == 0
			out, err := solve(op, id, traced)
			rep.attempted++
			if err != nil {
				rep.failed++
				continue
			}
			lat := out.build + out.solve
			opLat[j] = append(opLat[j], lat)
			builds = append(builds, out.build)
			solveTime[op.mode] += out.solve
			props += out.stats.Propagations
			if out.verdict != core.Unknown {
				rep.decided++
			}
			if traced {
				tracedLat = append(tracedLat, lat)
			} else {
				untracedLat = append(untracedLat, lat)
			}
			if passes == 0 {
				first[j] = out
			} else if f := first[j]; f.verdict != out.verdict || f.stats.Decisions != out.stats.Decisions {
				rep.wrong = append(rep.wrong, fmt.Sprintf("%s %v: not deterministic (%v/%d decisions, then %v/%d)",
					t.insts[op.inst].name, op.mode, f.verdict, f.stats.Decisions, out.verdict, out.stats.Decisions))
			}
		}
		passWall = append(passWall, time.Since(passStart))
	}
	elapsed := time.Since(start)
	mw.stop(rep.attempted, rep.layer)
	// Throughput is what the median pass sustained: its solves over its
	// wall time, garbage collection and all. An op's latency is its median
	// over the passes, so a burst of load that hits a few passes drops out
	// while the cost the code pays on every pass stays in.
	rep.opsPerS = float64(len(ops)) / quantile(passWall, 0.5).Seconds()
	medians := make([]time.Duration, 0, len(opLat))
	for _, ls := range opLat {
		if len(ls) > 0 {
			medians = append(medians, quantile(ls, 0.5))
		}
	}
	rep.latP50, rep.latP99 = quantile(medians, 0.5), quantile(medians, 0.99)

	var pass core.Stats
	undecided := int64(0)
	for _, out := range first {
		pass.Merge(out.stats)
		if out.verdict == core.Unknown {
			undecided++
		}
	}
	// PO and TO must agree wherever both decide.
	for i, in := range t.insts {
		po, to := first[2*i].verdict, first[2*i+1].verdict
		if po != core.Unknown && to != core.Unknown && po != to {
			rep.wrong = append(rep.wrong, fmt.Sprintf("%s: PO says %v, TO says %v", in.name, po, to))
		}
	}
	rep.counts["table1.solves_per_pass"] = int64(len(ops))
	rep.counts["table1.decisions"] = pass.Decisions
	rep.counts["table1.undecided"] = undecided
	rep.counts["table1.propagations"] = pass.Propagations

	l := rep.layer
	l["core.decisions"] = float64(pass.Decisions)
	l["core.conflicts"] = float64(pass.Conflicts)
	l["core.solutions"] = float64(pass.Solutions)
	l["core.propagations"] = float64(pass.Propagations)
	if total := solveTime[0] + solveTime[1]; total > 0 {
		l["core.props_per_s"] = float64(props) / total.Seconds()
	}
	l["core.build_us_p50"] = us(quantile(builds, 0.5))
	l["core.solve_s_po"] = solveTime[core.ModePartialOrder].Seconds() / float64(passes)
	l["core.solve_s_to"] = solveTime[core.ModeTotalOrder].Seconds() / float64(passes)
	l["prenex.apply_s"] = t.applyS
	if cfg.traced {
		rep.attachTrace(tr)
		l["trace.overhead_share"] = overheadShare(tracedLat, untracedLat)
	}
	logf("table1-solve: %d instances, %d passes of %d solves in %.2fs, %d undecided per pass\n",
		len(t.insts), passes, len(ops), elapsed.Seconds(), undecided)
	return rep, nil
}
