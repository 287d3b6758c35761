package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dia"
	"repro/internal/models"
	"repro/internal/qbf"
	"repro/internal/qdimacs"
	"repro/internal/server"
)

const (
	// ssNodeLimit is the per-call decision budget.
	ssNodeLimit = 20000
	// ssBlockCalls is the least number of calls a latency block holds, so
	// that ten calls lie beyond its p99.
	ssBlockCalls = 1000
	// ssRenamings is how many differently renamed copies of each base a
	// seed makes. Renaming changes the search, so the costly first calls of
	// the copies differ, and a block's p99 falls among many of them rather
	// than on one call whose cost depends on the seed.
	ssRenamings = 5
)

// ssBaseSteps are the (model, ladder step) pairs every seed sweeps; the
// seed renames their variables and orders their variants. Each one's
// variants take one-shot solves of 4 to 3000 decisions in all.
func ssBaseSteps() []struct {
	m *models.Model
	k int
} {
	return []struct {
		m *models.Model
		k int
	}{
		{models.Counter(2), 2}, {models.Counter(2), 3}, {models.Counter(3), 1},
		{models.Semaphore(3), 1}, {models.Semaphore(3), 2},
		{models.DME(2), 1}, {models.DME(2), 2},
		{models.DME(3), 1}, {models.DME(3), 2}, {models.DME(3), 3},
	}
}

// ssBase is one base instance with the one-shot reference for each
// variant: the base plus one root-block literal as a unit clause.
type ssBase struct {
	name    string
	text    string
	lits    []qbf.Lit
	oracle  map[qbf.Lit]core.Verdict
	oneShot int64 // Σ one-shot decisions over the variants
}

type sessionSweep struct {
	bases   []ssBase
	scripts [][]ssSession // per client, one round
	srv     *server.Server
	hs      *http.Server
	url     string
	hc      *http.Client
	dir     string
	// spans is non-nil during a traced run.
	spans      atomic.Pointer[tracer]
	handlerMu  sync.Mutex
	handlerLat []time.Duration
	openLat    []time.Duration
	fp         uint64
}

// ssSession is one session of a client's round: a base and the order its
// variants are swept in.
type ssSession struct {
	base int
	lits []qbf.Lit
}

func setupSession(seed int64, workDir string) (workload, error) {
	s := &sessionSweep{}
	if err := s.buildBases(seed); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workDir, "journal-")
	if err != nil {
		return nil, err
	}
	s.dir = dir
	s.srv = server.New(server.Config{JournalDir: dir, JournalFsync: "interval"})
	if st := s.srv.Snapshot().Journal; !st.Enabled || st.Degraded {
		s.close()
		return nil, fmt.Errorf("session-sweep: journal in %s is not usable", dir)
	}
	clients := runtime.NumCPU()
	s.hc = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients, DisableCompression: true,
	}}
	s.hs, s.url, err = listen(s.wrap(s.srv.Handler()))
	if err != nil {
		s.close()
		return nil, err
	}
	if err := waitReady(s.hc, s.url); err != nil {
		s.close()
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed + 1))
	for c := 0; c < clients; c++ {
		var script []ssSession
		for _, b := range rng.Perm(len(s.bases)) {
			lits := append([]qbf.Lit(nil), s.bases[b].lits...)
			rng.Shuffle(len(lits), func(i, j int) { lits[i], lits[j] = lits[j], lits[i] })
			script = append(script, ssSession{b, lits})
		}
		s.scripts = append(s.scripts, script)
	}
	return s, nil
}

// buildBases makes ssRenamings renamed copies of each base and solves
// every variant of each copy one-shot with the library.
func (s *sessionSweep) buildBases(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	h := fnv.New64a()
	for i := 0; i < ssRenamings*len(ssBaseSteps()); i++ {
		c := ssBaseSteps()[i%len(ssBaseSteps())]
		q, err := dia.StepInstance(c.m, c.k)
		if err != nil {
			return err
		}
		text, err := qdimacs.WriteString(renamed(q, rng))
		if err != nil {
			return err
		}
		// The reference solves what the server solves: the parsed text.
		pq, err := qdimacs.ReadString(text)
		if err != nil {
			return err
		}
		pq.NormalizeMatrix()
		b := ssBase{name: fmt.Sprintf("%s-step%d-%d", c.m.Name, c.k, i/len(ssBaseSteps())), text: text, oracle: map[qbf.Lit]core.Verdict{}}
		for _, v := range pq.Prefix.Blocks()[0].Vars {
			b.lits = append(b.lits, v.PosLit(), v.NegLit())
		}
		for _, l := range b.lits {
			vq := qbf.New(pq.Prefix, append(append([]qbf.Clause{}, pq.Matrix...), qbf.Clause{l}))
			res, err := core.Solve(context.Background(), vq, core.Options{NodeLimit: ssNodeLimit})
			if err != nil {
				return err
			}
			b.oracle[l] = res.Verdict
			b.oneShot += res.Stats.Decisions
		}
		io.WriteString(h, text) //nolint:errcheck // hash writes cannot fail
		s.bases = append(s.bases, b)
	}
	s.fp = h.Sum64()
	return nil
}

// wrap times the server handler during traced runs: session opens, and
// every call, with a span for calls that carry an op id.
func (s *sessionSweep) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := s.spans.Load()
		if tr == nil || r.Method != http.MethodPost {
			h.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		h.ServeHTTP(w, r)
		t1 := time.Now()
		s.handlerMu.Lock()
		defer s.handlerMu.Unlock()
		if r.URL.Path == "/v1/session" {
			s.openLat = append(s.openLat, t1.Sub(t0))
			return
		}
		s.handlerLat = append(s.handlerLat, t1.Sub(t0))
		if id, err := strconv.ParseInt(r.Header.Get("X-Bench-Op"), 10, 64); err == nil {
			tr.record(id, "server.handler", "call", t0, t1)
		}
	})
}

func (s *sessionSweep) close() {
	if s.hs != nil {
		s.hs.Close() //nolint:errcheck // listener teardown only
	}
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		s.srv.Drain(ctx) //nolint:errcheck // every session is closed after a run
		cancel()
	}
	if s.hc != nil {
		s.hc.CloseIdleConnections()
	}
	if s.dir != "" {
		os.RemoveAll(s.dir) //nolint:errcheck // the journal lives only as long as the run
	}
}

// ssCall is one measured call.
type ssCall struct {
	lat       time.Duration
	decisions int64
	decided   bool
	traced    bool
	err       error
	wrong     string
}

// post sends one JSON request and decodes the response.
func (s *sessionSweep) post(path string, body any, op int64) (server.SolveResponse, error) {
	var resp server.SolveResponse
	data, err := json.Marshal(body)
	if err != nil {
		return resp, err
	}
	req, err := http.NewRequest(http.MethodPost, s.url+path, bytes.NewReader(data))
	if err != nil {
		return resp, err
	}
	if op >= 0 {
		req.Header.Set("X-Bench-Op", strconv.FormatInt(op, 10))
	}
	return s.do(req)
}

func (s *sessionSweep) do(req *http.Request) (server.SolveResponse, error) {
	var resp server.SolveResponse
	hr, err := s.hc.Do(req)
	if err != nil {
		return resp, err
	}
	data, err := io.ReadAll(hr.Body)
	hr.Body.Close()
	if err != nil {
		return resp, err
	}
	if err := json.Unmarshal(data, &resp); err != nil {
		return resp, err
	}
	if hr.StatusCode != http.StatusOK {
		return resp, fmt.Errorf("%s %s: status %d: %s", req.Method, req.URL.Path, hr.StatusCode, resp.Error)
	}
	return resp, nil
}

// runScript runs one client's round: per base, open a session, sweep its
// variants with pop, push, assume and solve, then close it. opBase numbers
// the calls for the trace; traced calls alternate with untraced ones.
func (s *sessionSweep) runScript(script []ssSession, tr *tracer, opBase int64) ([]ssCall, error) {
	var calls []ssCall
	seq := opBase
	for _, sess := range script {
		b := &s.bases[sess.base]
		open, err := s.post("/v1/session", server.SessionRequest{Formula: b.text, MaxNodes: ssNodeLimit}, -1)
		if err != nil {
			return nil, fmt.Errorf("open %s: %w", b.name, err)
		}
		for i, l := range sess.lits {
			ops := []server.SessionOp{{Op: "push"}, {Op: "assume", Lits: []int{int(l)}}}
			if i > 0 {
				ops = append([]server.SessionOp{{Op: "pop"}}, ops...)
			}
			op := int64(-1)
			traced := tr != nil && seq%2 == 0
			if traced {
				op = seq
			}
			seq++
			t0 := time.Now()
			resp, err := s.post("/v1/session/"+open.Session, server.SessionSolveRequest{Seq: int64(i + 1), Ops: ops}, op)
			t1 := time.Now()
			c := ssCall{lat: t1.Sub(t0), traced: traced, err: err}
			if err == nil {
				if traced {
					tr.record(op, "call", "", t0, t1)
				}
				if resp.Stats != nil {
					c.decisions = resp.Stats.Decisions
				}
				want := b.oracle[l]
				c.decided = resp.Verdict == core.True.String() || resp.Verdict == core.False.String()
				if c.decided && want != core.Unknown && resp.Verdict != want.String() {
					c.wrong = fmt.Sprintf("session-sweep %s assuming %d: got %s, library says %v", b.name, l, resp.Verdict, want)
				}
			}
			calls = append(calls, c)
		}
		req, err := http.NewRequest(http.MethodDelete, s.url+"/v1/session/"+open.Session, nil)
		if err != nil {
			return nil, err
		}
		if _, err := s.do(req); err != nil {
			return nil, fmt.Errorf("close %s: %w", b.name, err)
		}
	}
	return calls, nil
}

// round runs every client's script once, concurrently.
func (s *sessionSweep) round(tr *tracer, opBase int64) ([][]ssCall, error) {
	out := make([][]ssCall, len(s.scripts))
	errs := make([]error, len(s.scripts))
	var wg sync.WaitGroup
	for c := range s.scripts {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out[c], errs[c] = s.runScript(s.scripts[c], tr, opBase+int64(c)<<20)
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// run repeats rounds until a round ends after the window length. The
// rounds are barriers, so each one's counts are exact.
func (s *sessionSweep) run(cfg runConfig) (*report, error) {
	rep := newReport()
	rep.fingerprint = s.fp
	if _, err := s.round(nil, 0); err != nil { // warm-up
		return nil, err
	}
	var tr *tracer
	if cfg.traced {
		tr = newTracer()
		s.spans.Store(tr)
		defer s.spans.Store(nil)
	}
	oneShot := int64(0)
	for _, sc := range s.scripts {
		for _, sess := range sc {
			oneShot += s.bases[sess.base].oneShot
		}
	}
	var firstDecisions, firstAppends int64
	var calls, bytesCalls, bytes int64
	var lat, tracedLat, untracedLat, roundDur []time.Duration
	rounds := 0
	j0 := s.srv.Snapshot().Journal
	mw := startMem()
	start := time.Now()
	for ; rounds == 0 || time.Since(start) < cfg.seconds; rounds++ {
		before := s.srv.Snapshot().Journal
		t0 := time.Now()
		out, err := s.round(tr, int64(rounds)<<24)
		if err != nil {
			return nil, err
		}
		roundDur = append(roundDur, time.Since(t0))
		after := s.srv.Snapshot().Journal
		var decisions, n, failed int64
		for _, cs := range out {
			for _, c := range cs {
				rep.attempted++
				n++
				if c.err != nil {
					failed++
					continue
				}
				if c.wrong != "" {
					rep.wrong = append(rep.wrong, c.wrong)
				}
				if c.decided {
					rep.decided++
				}
				decisions += c.decisions
				lat = append(lat, c.lat)
				if c.traced {
					tracedLat = append(tracedLat, c.lat)
				} else if cfg.traced {
					untracedLat = append(untracedLat, c.lat)
				}
			}
		}
		rep.failed += failed
		appends := after.Appends - before.Appends
		if rounds == 0 {
			firstDecisions, firstAppends = decisions, appends
		} else if failed == 0 && (decisions != firstDecisions || appends != firstAppends) {
			rep.wrong = append(rep.wrong, fmt.Sprintf("session-sweep round %d: %d decisions and %d journal appends, round 0 had %d and %d",
				rounds, decisions, appends, firstDecisions, firstAppends))
		}
		calls += n
		// Compaction shrinks the log, so bytes per call come from the
		// rounds no compaction ran in.
		if after.Compactions == before.Compactions {
			bytes += after.Bytes - before.Bytes
			bytesCalls += n
		}
	}
	elapsed := time.Since(start)
	mw.stop(rep.attempted, rep.layer)
	j1 := s.srv.Snapshot().Journal
	perRound := calls / int64(rounds)
	// Throughput is that of the median round: a round is the same calls
	// every time, so slow periods of the machine fall in the outer rounds.
	rep.opsPerS = float64(perRound) / quantile(roundDur, 0.5).Seconds()
	// A block of whole rounds holds the same calls every time, at least
	// ssBlockCalls of them.
	blockRounds := (ssBlockCalls + int(perRound) - 1) / int(perRound)
	rep.latP50, rep.latP99 = blockQuantiles(lat, blockRounds*int(perRound))
	rep.counts["session.calls_per_round"] = perRound
	rep.counts["session.decisions"] = firstDecisions
	rep.counts["session.journal_appends"] = firstAppends

	l := rep.layer
	l["core.decisions"] = float64(firstDecisions)
	l["core.decisions_per_call"] = float64(firstDecisions) / float64(perRound)
	if firstDecisions > 0 {
		l["core.inc_one_decision_ratio"] = float64(firstDecisions) / float64(oneShot)
	}
	l["journal.appends_per_call"] = float64(firstAppends) / float64(perRound)
	if bytesCalls > 0 {
		l["journal.bytes_per_call"] = float64(bytes) / float64(bytesCalls)
	}
	l["journal.segments"] = float64(j1.Segments)
	l["journal.compactions"] = float64(j1.Compactions - j0.Compactions)
	for _, n := range s.srv.Snapshot().Shed {
		l["server.shed"] += float64(n)
	}
	if cfg.traced {
		rep.attachTrace(tr)
		l["trace.overhead_share"] = overheadShare(tracedLat, untracedLat)
		s.handlerMu.Lock()
		l["server.handler_ms_p50"] = ms(quantile(s.handlerLat, 0.5))
		l["server.handler_ms_p99"] = ms(quantile(s.handlerLat, 0.99))
		l["server.session_open_ms_p50"] = ms(quantile(s.openLat, 0.5))
		s.handlerMu.Unlock()
	}
	logf("session-sweep: %d clients, %d rounds of %d calls in %.2fs; %d journal appends and %d decisions per round (one-shot %d)\n",
		len(s.scripts), rounds, perRound, elapsed.Seconds(), firstAppends, firstDecisions, oneShot)
	return rep, nil
}
