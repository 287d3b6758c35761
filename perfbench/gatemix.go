package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/gate"
	"repro/internal/prenex"
	"repro/internal/qbf"
	"repro/internal/qdimacs"
	"repro/internal/randqbf"
	"repro/internal/result"
	"repro/internal/server"
)

const (
	// gmSeqLen is the request count of one replay of the sequence; every
	// measured phase replays it once, from an empty cache.
	gmSeqLen = 1500
	// gmRepeatShare percent of the requests repeat a formula sent 2 to
	// gmRepeatBack requests earlier, renamed and with its clauses permuted.
	// A repeat is sent only once its original has been answered, so each
	// repeat is a cache hit by construction, never a request coalesced
	// onto a flight. The shares are a measurement choice, not a claim about
	// real traffic: an even split puts 750 hits and 750 misses in every
	// phase, so the hit and the miss percentiles each rest on at least 1000
	// requests over a run's reference phases. (qbfbench's gate storm, which
	// cycles six formulas, reaches 92% hits; at that share a phase would
	// hold 120 misses.)
	gmRepeatShare = 50
	gmRepeatBack  = 64
	// gmTOShare percent of the fresh formulas ask for mode "to", so that the
	// prenexing path of the backend runs on about 190 misses per phase.
	// It too is a measurement choice.
	gmTOShare = 25
	// gmNodeLimit is the per-request decision budget; gmMaxDecisions keeps
	// only formulas the library decides within that many decisions, so a
	// miss costs well under a millisecond of search, far below the
	// gate's 30 ms hedge floor.
	gmNodeLimit    = 20000
	gmMaxDecisions = 200
	// gmRefRate is the fixed rate lat_p50_ms and lat_p99_ms are measured
	// at, about a quarter of the knee.
	gmRefRate = 1200
	// gmRefReplays is how many reference phases a round runs.
	gmRefReplays = 2
	// gmRungReplays is how many replays of the sequence one ladder rung
	// pools, so that a rung's p99 rests on 30 samples beyond it.
	gmRungReplays = 2
	// gmLatLimit is the p99 a ladder rung must stay under. It sits well
	// above the unloaded p99, on the steep part of the latency curve.
	gmLatLimit = 25 * time.Millisecond
)

// gmLadder is the fixed rate ladder max_rate_rps is read from.
var gmLadder = func() []float64 {
	var out []float64
	for r := 3600.0; r < 36000; r *= 1.1 {
		out = append(out, math.Round(r))
	}
	return out
}()

// gmReq is one request of the sequence.
type gmReq struct {
	text    string // the formula as sent
	mode    string // "po" or "to"
	body    []byte // the JSON request
	oracle  core.Verdict
	hit     bool // expected to be served from the cache
	base    int  // index of the fresh formula this one renames
	orig    int  // index of the request that sent that formula first
	decided int64
}

type gateMix struct {
	seq      []gmReq
	gaps     []float64 // unit-rate Poisson inter-arrival times
	conns    int
	backends []*server.Server
	servers  []*http.Server
	urls     []string
	front    *http.Server
	frontURL string
	hc       *http.Client
	// cur is the gate of the current phase; a fresh gate per phase starts
	// each phase from an empty cache.
	cur atomic.Pointer[gate.Gate]
	// spans is non-nil while a traced phase runs.
	spans       atomic.Pointer[tracer]
	handlerLat  []time.Duration
	handlerMu   sync.Mutex
	fingerprint uint64
	expectHits  int64
}

func setupGateMix(seed int64, _ string) (workload, error) {
	g := &gateMix{conns: runtime.NumCPU()}
	if err := g.buildSequence(seed); err != nil {
		return nil, err
	}
	if err := g.start(); err != nil {
		g.close()
		return nil, err
	}
	return g, nil
}

// buildSequence generates the fresh formulas, solves each with the library
// (the oracle), and lays out the request sequence with its repeats.
func (g *gateMix) buildSequence(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	base := seed * 1_000_003
	type fresh struct {
		q         *qbf.QBF
		text, key string
		mode      string
		oracle    core.Verdict
		dec       int64
	}
	var pool []fresh
	seen := map[string]bool{}
	next := int64(0)
	newFresh := func(mode string) (int, error) {
		opt := core.Options{Mode: core.ModePartialOrder, NodeLimit: gmNodeLimit}
		if mode == "to" {
			opt.Mode = core.ModeTotalOrder
		}
		for {
			next++
			p := randqbf.ProbParams{Blocks: 3, BlockSize: 5, Clauses: 30, Length: 3, MaxUniversal: 1,
				Communities: 2, Seed: base + next}
			q := prenex.Miniscope(randqbf.Prob(p))
			text, err := qdimacs.WriteString(q)
			if err != nil {
				return 0, err
			}
			// Solve what the backend will solve: the parsed text, prenexed
			// ∃↑∀↑ for mode "to".
			pq, err := qdimacs.ReadString(text)
			if err != nil {
				return 0, err
			}
			key := gate.Key(pq, mode, strategyOf(mode))
			if seen[key] {
				continue
			}
			pq.NormalizeMatrix()
			sq := pq
			if mode == "to" && !pq.Prefix.IsPrenex() {
				sq = prenex.Apply(pq, prenex.EUpAUp)
			}
			res, err := core.Solve(context.Background(), sq, opt)
			if err != nil {
				return 0, err
			}
			if res.Verdict == core.Unknown || res.Stats.Decisions > gmMaxDecisions {
				continue
			}
			seen[key] = true
			pool = append(pool, fresh{q, text, key, mode, res.Verdict, res.Stats.Decisions})
			return len(pool) - 1, nil
		}
	}
	// Exactly gmRepeatShare of the requests repeat, at seeded positions
	// from the third on, and exactly gmTOShare of the fresh ones ask for
	// mode "to".
	repeats := gmSeqLen * gmRepeatShare / 100
	isRepeat := make([]bool, gmSeqLen)
	for _, i := range rng.Perm(gmSeqLen - 2)[:repeats] {
		isRepeat[i+2] = true
	}
	nNew := gmSeqLen - repeats
	isTO := make([]bool, nNew)
	for _, i := range rng.Perm(nNew)[:nNew*gmTOShare/100] {
		isTO[i] = true
	}
	nFresh := 0
	g.seq = make([]gmReq, gmSeqLen)
	for i := range g.seq {
		r := &g.seq[i]
		if isRepeat[i] {
			lo := i - gmRepeatBack
			if lo < 0 {
				lo = 0
			}
			j := lo + rng.Intn(i-1-lo)
			r.base, r.orig, r.hit = g.seq[j].base, g.seq[j].orig, true
			f := pool[r.base]
			v := renamed(f.q, rng)
			rng.Shuffle(len(v.Matrix), func(a, b int) { v.Matrix[a], v.Matrix[b] = v.Matrix[b], v.Matrix[a] })
			text, err := qdimacs.WriteString(v)
			if err != nil {
				return err
			}
			r.text = text
		} else {
			mode := "po"
			if isTO[nFresh] {
				mode = "to"
			}
			nFresh++
			b, err := newFresh(mode)
			if err != nil {
				return err
			}
			r.base, r.orig, r.text = b, i, pool[b].text
		}
		f := pool[r.base]
		r.mode, r.oracle, r.decided = f.mode, f.oracle, f.dec
		body, err := json.Marshal(server.SolveRequest{Formula: r.text, Mode: r.mode, MaxNodes: gmNodeLimit})
		if err != nil {
			return err
		}
		r.body = body
	}
	// A renamed repeat must land on its original's cache key.
	for i, r := range g.seq {
		if !r.hit {
			continue
		}
		q, err := qdimacs.ReadString(r.text)
		if err != nil {
			return err
		}
		if gate.Key(q, r.mode, strategyOf(r.mode)) != pool[r.base].key {
			return fmt.Errorf("gate-mix: request %d does not share its original's cache key", i)
		}
	}
	g.expectHits = int64(repeats)
	g.gaps = make([]float64, gmSeqLen)
	for i := range g.gaps {
		g.gaps[i] = rng.ExpFloat64()
	}
	h := fnv.New64a()
	for _, r := range g.seq {
		io.WriteString(h, r.text) //nolint:errcheck // hash writes cannot fail
	}
	g.fingerprint = h.Sum64()
	return nil
}

func strategyOf(mode string) string {
	if mode == "to" {
		return "eu-au"
	}
	return ""
}

// start brings up two single-worker qbfd backends and the gate's listener
// on loopback, and waits until each answers /readyz.
func (g *gateMix) start() error {
	g.hc = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: g.conns, MaxConnsPerHost: g.conns, DisableCompression: true,
	}}
	for i := 0; i < 2; i++ {
		srv := server.New(server.Config{Workers: 1})
		hs, url, err := listen(g.backendHandler(srv.Handler()))
		if err != nil {
			return err
		}
		g.backends = append(g.backends, srv)
		g.servers = append(g.servers, hs)
		g.urls = append(g.urls, url)
	}
	front, url, err := listen(g.frontHandler())
	if err != nil {
		return err
	}
	g.front, g.frontURL = front, url
	for _, u := range g.urls {
		if err := waitReady(g.hc, u); err != nil {
			return err
		}
	}
	return nil
}

// listen serves h on a fresh loopback port.
func listen(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: h}
	go hs.Serve(ln) //nolint:errcheck // ends with ErrServerClosed on close
	return hs, "http://" + ln.Addr().String(), nil
}

// waitReady polls /readyz until it answers 200.
func waitReady(hc *http.Client, url string) error {
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := hc.Get(url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained for connection reuse
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready: %v", url, err)
		}
		runtime.Gosched()
	}
}

// frontHandler routes to the current phase's gate, recording the gate
// handler span of traced requests.
func (g *gateMix) frontHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gt := g.cur.Load()
		if gt == nil {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		tr := g.spans.Load()
		op := r.Header.Get("X-Bench-Op")
		if tr == nil || op == "" {
			gt.Handler().ServeHTTP(w, r)
			return
		}
		id, _ := strconv.ParseInt(op, 10, 64)
		t0 := time.Now()
		gt.Handler().ServeHTTP(w, r)
		tr.record(id, "gate.handler", "request", t0, time.Now())
	})
}

// opMarker starts the formula of a traced request, so the backend span can
// be joined to its op: the gate forwards the formula text unchanged.
const opMarker = "c op "

// backendHandler wraps a qbfd handler: during traced phases it times every
// solve and records a span for traced requests.
func (g *gateMix) backendHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := g.spans.Load()
		if tr == nil || r.URL.Path != "/solve" {
			h.ServeHTTP(w, r)
			return
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		t0 := time.Now()
		h.ServeHTTP(w, r)
		t1 := time.Now()
		g.handlerMu.Lock()
		g.handlerLat = append(g.handlerLat, t1.Sub(t0))
		g.handlerMu.Unlock()
		if i := bytes.Index(body, []byte(opMarker)); i >= 0 {
			rest := body[i+len(opMarker):]
			end := bytes.IndexByte(rest, '\\')
			if id, err := strconv.ParseInt(string(rest[:max(end, 0)]), 10, 64); err == nil {
				tr.record(id, "server.handler", "gate.handler", t0, t1)
			}
		}
	})
}

func (g *gateMix) close() {
	for _, hs := range append(g.servers, g.front) {
		if hs != nil {
			hs.Close() //nolint:errcheck // listener teardown only
		}
	}
	for _, srv := range g.backends {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		srv.Drain(ctx) //nolint:errcheck // nothing is in flight after a run
		cancel()
	}
	if g.hc != nil {
		g.hc.CloseIdleConnections()
	}
}

// gmResult is one request's outcome in a phase.
type gmResult struct {
	due, sent, done time.Time
	answered        chan struct{} // closed once done is set
	status          int
	resp            server.SolveResponse
	err             error
}

// phase is one replay of the sequence.
type phase struct {
	results []gmResult
	stats   gate.Stats
}

func (p *phase) lat() []time.Duration {
	out := make([]time.Duration, 0, len(p.results))
	for _, r := range p.results {
		out = append(out, r.done.Sub(r.due))
	}
	return out
}

func (p *phase) failed() int64 {
	n := int64(0)
	for _, r := range p.results {
		if r.err != nil || r.status != http.StatusOK {
			n++
		}
	}
	return n
}

// lateGrowth is how much further behind the generator ran over the
// phase: the mean lateness of the last quarter minus that of the first.
func (p *phase) lateGrowth() time.Duration {
	q := len(p.results) / 4
	mean := func(rs []gmResult) time.Duration {
		var s time.Duration
		for _, r := range rs {
			s += r.sent.Sub(r.due)
		}
		return s / time.Duration(len(rs))
	}
	return mean(p.results[len(p.results)-q:]) - mean(p.results[:q])
}

// runPhase replays the sequence at rate through a fresh gate, open loop:
// request i is due at its Poisson arrival time and is handed to the first
// free connection; while all are busy the generator runs late, and the
// latency counts from the due time.
func (g *gateMix) runPhase(rate float64, n int, tr *tracer, opBase int64) (*phase, error) {
	gt, err := g.startGate()
	if err != nil {
		return nil, err
	}
	g.spans.Store(tr)
	defer func() {
		g.spans.Store(nil)
		g.stopGate(gt)
	}()
	p := &phase{results: make([]gmResult, n)}
	for i := range p.results {
		p.results[i].answered = make(chan struct{})
	}
	work := make(chan int)
	var wg sync.WaitGroup
	for c := 0; c < g.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				g.send(i, p, tr, opBase)
			}
		}()
	}
	start := time.Now().Add(time.Millisecond)
	at := 0.0
	for i := range p.results {
		at += g.gaps[i] / rate
		due := start.Add(time.Duration(at * float64(time.Second)))
		p.results[i].due = due
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if g.seq[i].hit {
			<-p.results[g.seq[i].orig].answered
		}
		work <- i
	}
	close(work)
	wg.Wait()
	p.stats = gt.Snapshot()
	return p, nil
}

// startGate puts a fresh gate, with an empty cache, behind the front
// listener.
func (g *gateMix) startGate() (*gate.Gate, error) {
	gt, err := gate.New(gate.Config{Backends: g.urls})
	if err != nil {
		return nil, err
	}
	g.cur.Store(gt)
	return gt, nil
}

func (g *gateMix) stopGate(gt *gate.Gate) {
	g.cur.Store(nil)
	gt.Stop()
}

func (g *gateMix) send(i int, p *phase, tr *tracer, opBase int64) {
	r := &g.seq[i]
	res := &p.results[i]
	defer close(res.answered)
	body := r.body
	req, err := http.NewRequest(http.MethodPost, g.frontURL+"/v1/solve", nil)
	if err != nil {
		res.err = err
		return
	}
	id := opBase + int64(i)
	if tr != nil {
		body, err = json.Marshal(server.SolveRequest{Formula: opMarker + strconv.FormatInt(id, 10) + "\n" + r.text,
			Mode: r.mode, MaxNodes: gmNodeLimit})
		if err != nil {
			res.err = err
			return
		}
		req.Header.Set("X-Bench-Op", strconv.FormatInt(id, 10))
	}
	req.Body = io.NopCloser(bytes.NewReader(body))
	req.ContentLength = int64(len(body))
	res.sent = time.Now()
	resp, err := g.hc.Do(req)
	if err != nil {
		res.err, res.done = err, time.Now()
		return
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	res.done = time.Now()
	res.status = resp.StatusCode
	if err == nil {
		err = json.Unmarshal(data, &res.resp)
	}
	res.err = err
	tr.record(id, "request", "", res.due, res.done)
}

// check verifies each answered verdict against the oracle and the phase's
// cache hits against the sequence's construction.
func (g *gateMix) check(p *phase, rep *report, name string) {
	hits := int64(0)
	for i, r := range p.results {
		rep.attempted++
		if r.err != nil || r.status != http.StatusOK {
			rep.failed++
			continue
		}
		v := r.resp.Verdict
		if v == result.True.String() || v == result.False.String() {
			rep.decided++
		}
		if v != g.seq[i].oracle.String() {
			rep.wrong = append(rep.wrong, fmt.Sprintf("gate-mix %s request %d (%s, mode %s): got %s, library says %v",
				name, i, firstLine(g.seq[i].text), g.seq[i].mode, v, g.seq[i].oracle))
		}
		if r.resp.Source == server.SourceCache {
			hits++
		} else if st := r.resp.Stats; st == nil || st.Decisions != g.seq[i].decided {
			rep.wrong = append(rep.wrong, fmt.Sprintf("gate-mix %s request %d (%s): backend decisions differ from the library's %d",
				name, i, firstLine(g.seq[i].text), g.seq[i].decided))
		}
	}
	if p.failed() == 0 && (hits != g.expectHits || p.stats.CacheHits != g.expectHits) {
		rep.wrong = append(rep.wrong, fmt.Sprintf("gate-mix %s: %d responses and %d gate hits from the cache, the sequence has %d repeats",
			name, hits, p.stats.CacheHits, g.expectHits))
	}
}

// renamed returns q under a seeded variable permutation.
func renamed(q *qbf.QBF, rng *rand.Rand) *qbf.QBF {
	return qbf.Rename(q, permutation(q.MaxVar(), rng))
}

// permutation returns a seeded permutation of the variables 1..n.
func permutation(n int, rng *rand.Rand) []qbf.Var {
	perm := qbf.IdentityPerm(n)
	rng.Shuffle(n, func(i, j int) { perm[i+1], perm[j+1] = perm[j+1], perm[i+1] })
	return perm
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// run alternates reference phases with ladder sweeps until the window is
// used up, so both share each slow period of the machine. A sweep climbs
// the ladder until a rung misses the latency limit, fails a request, or
// falls behind. A traced run adds a traced reference phase to each round.
func (g *gateMix) run(cfg runConfig) (*report, error) {
	rep := newReport()
	rep.fingerprint = g.fingerprint
	// Warm-up: the first third of the sequence at the reference rate.
	if _, err := g.runPhase(gmRefRate, len(g.seq)/3, nil, 0); err != nil {
		return nil, err
	}
	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	var refLat, tracedLat, late, queue, hitLat, missLat []time.Duration
	var crossings []float64
	var first *phase
	l := rep.layer
	// account checks a phase and keeps only what the metrics need.
	account := func(p *phase, name string) {
		g.check(p, rep, name)
		l["gate.coalesced"] += float64(p.stats.Coalesced)
		l["gate.hedges"] += float64(p.stats.Hedges)
		l["gate.hedge_wins"] += float64(p.stats.HedgeWins)
		l["gate.failovers"] += float64(p.stats.Failovers)
	}
	rounds := 0
	mw := startMem()
	start := time.Now()
	for ; rounds == 0 || time.Since(start) < cfg.seconds; rounds++ {
		for k := 0; k < gmRefReplays; k++ {
			ref, err := g.runPhase(gmRefRate, len(g.seq), nil, 0)
			if err != nil {
				return nil, err
			}
			account(ref, "reference")
			refLat = append(refLat, ref.lat()...)
			if first == nil {
				first = ref
			}
		}
		if cfg.traced {
			tref, err := g.runPhase(gmRefRate, len(g.seq), tr, int64(rounds*len(g.seq)))
			if err != nil {
				return nil, err
			}
			account(tref, "traced reference")
			tracedLat = append(tracedLat, tref.lat()...)
			for i, r := range tref.results {
				if g.seq[i].hit {
					hitLat = append(hitLat, r.done.Sub(r.sent))
				} else {
					missLat = append(missLat, r.done.Sub(r.sent))
				}
			}
		}
		var passed, failed *rung
		for _, rate := range gmLadder {
			rg := &rung{rate: rate}
			for k := 0; k < gmRungReplays; k++ {
				p, err := g.runPhase(rate, len(g.seq), nil, 0)
				if err != nil {
					return nil, err
				}
				account(p, fmt.Sprintf("rung %.0f/s", rate))
				rg.add(p, g.seq)
			}
			if rg.load() > 1 {
				failed = rg
				break
			}
			passed = rg
		}
		crossings = append(crossings, crossing(passed, failed))
		if passed != nil {
			late = append(late, passed.late...)
			queue = append(queue, passed.queue...)
		}
	}
	mw.stop(rep.attempted, rep.layer)
	rep.opsPerS = median(crossings)
	// Every reference phase replays the same requests on the same
	// schedule, so a request's median latency over the phases keeps the
	// queueing its place in the schedule causes and drops the stalls that
	// other load on the machine adds to a few phases at random.
	typical := make([]time.Duration, len(g.seq))
	var samples []time.Duration
	for i := range typical {
		samples = samples[:0]
		for k := i; k < len(refLat); k += len(g.seq) {
			samples = append(samples, refLat[k])
		}
		typical[i] = quantile(samples, 0.5)
	}
	rep.latP50, rep.latP99 = quantile(typical, 0.5), quantile(typical, 0.99)

	decisions := int64(0)
	var st core.Stats
	for i, r := range first.results {
		if !g.seq[i].hit && r.resp.Stats != nil {
			decisions += r.resp.Stats.Decisions
			st.Conflicts += r.resp.Stats.Conflicts
			st.Solutions += r.resp.Stats.Solutions
			st.Propagations += r.resp.Stats.Propagations
		}
	}
	rep.counts["gate.hits"] = first.stats.CacheHits
	rep.counts["gate.misses"] = first.stats.CacheMisses
	rep.counts["gate.decisions"] = decisions
	rep.counts["gate.requests_per_phase"] = int64(len(g.seq))

	l["core.decisions"] = float64(decisions)
	l["core.conflicts"] = float64(st.Conflicts)
	l["core.solutions"] = float64(st.Solutions)
	l["core.propagations"] = float64(st.Propagations)
	if n := first.stats.CacheHits + first.stats.CacheMisses; n > 0 {
		l["gate.hit_share"] = float64(first.stats.CacheHits) / float64(n)
	}
	for _, srv := range g.backends {
		for _, n := range srv.Snapshot().Shed {
			l["server.shed"] += float64(n)
		}
	}
	l["loadgen.late_ms_p99"] = ms(quantile(late, 0.99))
	l["server.queue_ms_p99"] = ms(quantile(queue, 0.99))
	if cfg.traced {
		l["gate.hit_ms_p50"] = ms(quantile(hitLat, 0.5))
		l["gate.miss_ms_p50"] = ms(quantile(missLat, 0.5))
		l["gate.miss_ms_p99"] = ms(quantile(missLat, 0.99))
		l["trace.overhead_share"] = overheadShare(tracedLat, refLat)
		g.layerReplays(tr, rep)
	}
	logf("gate-mix: %d rounds of %d requests, %d hits each; reference p50 %.3fms p99 %.3fms; max rates %.0f/s\n",
		rounds, len(g.seq), first.stats.CacheHits, ms(rep.latP50), ms(rep.latP99), crossings)
	return rep, nil
}

// rung pools the replays of one ladder rate.
type rung struct {
	rate        float64
	lat         []time.Duration
	late, queue []time.Duration
	failed      int64
	growth      time.Duration
}

func (rg *rung) add(p *phase, seq []gmReq) {
	rg.lat = append(rg.lat, p.lat()...)
	rg.failed += p.failed()
	rg.growth = max(rg.growth, p.lateGrowth())
	for i, r := range p.results {
		rg.late = append(rg.late, r.sent.Sub(r.due))
		if !seq[i].hit {
			rg.queue = append(rg.queue, time.Duration(r.resp.QueueMS)*time.Millisecond)
		}
	}
}

// load is how far the rung is from sustainable, 1 at the edge: its p99
// over the latency limit, or its lateness growth over a quarter of the
// limit, whichever is larger; infinite once a request failed.
func (rg *rung) load() float64 {
	if rg.failed > 0 {
		return math.Inf(1)
	}
	return math.Max(float64(quantile(rg.lat, 0.99))/float64(gmLatLimit),
		float64(rg.growth)/float64(gmLatLimit/4))
}

// crossing is the rate at which the load reaches 1, interpolated in log
// load between the last rung that passed and the first that did not.
func crossing(passed, failed *rung) float64 {
	switch {
	case passed == nil && failed == nil:
		return 0
	case failed == nil:
		return passed.rate
	case passed == nil:
		return failed.rate / failed.load()
	}
	lo, hi := math.Log(passed.load()), math.Log(failed.load())
	frac := 0.0
	if hi > lo && !math.IsInf(hi, 1) {
		frac = -lo / (hi - lo)
	}
	return passed.rate + math.Max(0, math.Min(1, frac))*(failed.rate-passed.rate)
}

// layerReplays fills the per-layer metrics of the traced reference phase
// and times the library calls the request path makes, replayed on the
// sequence's own formulas.
func (g *gateMix) layerReplays(tr *tracer, rep *report) {
	l := rep.layer
	sum := rep.attachTrace(tr)
	l["gate.self_ms_p50"] = ms(quantile(sum.selfByName("gate.handler", true), 0.5))
	g.handlerMu.Lock()
	l["server.handler_ms_p50"] = ms(quantile(g.handlerLat, 0.5))
	l["server.handler_ms_p99"] = ms(quantile(g.handlerLat, 0.99))
	g.handlerMu.Unlock()

	var read, decode, key []time.Duration
	for _, r := range g.seq {
		t0 := time.Now()
		q, err := qdimacs.ReadString(r.text)
		read = append(read, time.Since(t0))
		if err != nil {
			continue
		}
		t0 = time.Now()
		gate.Key(q, r.mode, strategyOf(r.mode))
		key = append(key, time.Since(t0))
		t0 = time.Now()
		if req, err := server.ParseSolveRequest(r.body); err == nil {
			if dq, err := qdimacs.ReadString(req.Formula); err == nil {
				dq.NormalizeMatrix()
				dq.Validate() //nolint:errcheck // timed only; the backends validated it live
			}
		}
		decode = append(decode, time.Since(t0))
	}
	l["qdimacs.read_us_p50"] = us(quantile(read, 0.5))
	l["gate.key_us_p50"] = us(quantile(key, 0.5))
	l["server.decode_us_p50"] = us(quantile(decode, 0.5))

	gt, err := g.startGate()
	if err != nil {
		return
	}
	defer g.stopGate(gt)
	var rtt []time.Duration
	for i := 0; i < 1000; i++ {
		t0 := time.Now()
		resp, err := g.hc.Get(g.frontURL + "/healthz")
		if err != nil {
			continue
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained for connection reuse
		resp.Body.Close()
		rtt = append(rtt, time.Since(t0))
	}
	l["transport.rtt_us_p50"] = us(quantile(rtt, 0.5))
}
