package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hypertree"
	"hypertree/internal/gen"
	"hypertree/internal/serve"
)

const (
	serveRows   = 2000
	serveDomain = 500
	serveSkew   = 1.5
	// serveDBSeed fixes the served database: the run's seed varies the
	// traffic (request order, α-renamings, ingested facts), not the data.
	// The race's plan for cycle4 depends on the data — on some databases
	// its cross-product bag sits at the root, on others one level down,
	// and the warm execution time differs by half between the two — so a
	// per-seed database would make every latency bimodal across seeds.
	// Both placements materialise the ~970k-row cross product (NOTES.md).
	serveDBSeed = 1
	// mixBlock is the span, in requests, over which the mix is shuffled:
	// under half the 14-request spacing of cycle4 at its 7% share, so two
	// cycle4 requests seldom come close enough to hold both connections.
	mixBlock = 6
	// ingestEvery is the fixed ingest schedule, the same at every rate;
	// each ingest adds one random fact to each of r1..r4.
	ingestEvery = 500 * time.Millisecond
	// tailLimit is the latency limit on the tail percentile a ladder rate
	// must meet. cycle4 alone runs about 0.6s warm (see NOTES.md), so the
	// limit leaves room for one queued execution behind it.
	tailLimit = 1500 * time.Millisecond
)

// serveLadder is the fixed ladder of offered rates in requests per second.
// The first is the reference rate, about a sixth of what two connections
// sustain: latency metrics are taken there, and it gets three quarters of
// the run, enough requests (181, 13 of them cycle4) that the tail
// percentile falls among the cycle4 executions rather than between modes.
// The others share the last quarter. At 8 per second a cycle4 execution
// overlaps about a quarter of the cheap requests, so the median request
// runs alone. At 12 it overlapped 40–50% of them, the median sat between
// the alone and the overlapped latencies, and a cycle4 slowed by
// hypervisor steal tipped it over: the median rose by half at 8% steal.
var serveLadder = []float64{8, 24, 36, 48}

// servingStack is an in-process hdserve — the daemon's own Server and
// HTTP handler with its shipped defaults — behind a loopback listener.
type servingStack struct {
	baseDB *hypertree.Database // the database as served before any ingest
	srv    *serve.Server
	hs     *http.Server
	served chan struct{} // closed when Serve has returned
	url    string
	client *http.Client
}

// startServing is the serve-mix set-up: build the database, start the
// server exactly as cmd/hdserve configures it by default (auto kernel,
// sampled statistics snapshot, tracing off), and warm its PlanCache and
// encoding cache with one request per template.
func startServing(conns int) (*servingStack, error) {
	db := gen.ServingDatabase(rand.New(rand.NewSource(serveDBSeed)), serveRows, serveDomain)
	srv, err := serve.New(serve.Config{DB: db, JoinKernel: "auto"})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	st := &servingStack{
		baseDB: db,
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan struct{}),
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns + 1, // the query connections plus the ingest writer's
			MaxIdleConnsPerHost: conns + 1,
			DisableCompression:  true,
		}},
	}
	go func() {
		defer close(st.served)
		_ = st.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	for _, tpl := range gen.ServingPool() {
		res, err := st.query(tpl.Src, false)
		if err == nil && res.status != http.StatusOK {
			err = fmt.Errorf("status %d", res.status)
		}
		if err != nil {
			st.close()
			return nil, fmt.Errorf("warming %s: %w", tpl.Name, err)
		}
	}
	return st, nil
}

func (st *servingStack) close() {
	if st == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = st.hs.Shutdown(ctx) // drains idle connections; in-flight ones finish
	<-st.served
	st.srv.Close()
	st.client.CloseIdleConnections()
}

// queryResult is the part of a /query response the benchmark checks.
type queryResult struct {
	status        int
	Boolean       *bool               `json:"boolean"`
	RowCount      int                 `json:"row_count"`
	Coalesced     bool                `json:"coalesced"`
	CompileMicros int64               `json:"compile_us"`
	ExecMicros    int64               `json:"exec_us"`
	Trace         []serve.SpanSummary `json:"trace"`
}

func (st *servingStack) query(src string, trace bool) (*queryResult, error) {
	body, err := json.Marshal(serve.QueryRequest{Query: src, Trace: trace})
	if err != nil {
		return nil, err
	}
	resp, err := st.client.Post(st.url+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	res := &queryResult{status: resp.StatusCode}
	if resp.StatusCode == http.StatusOK {
		err = json.NewDecoder(resp.Body).Decode(res)
	}
	_, _ = io.Copy(io.Discard, resp.Body) // let the connection be reused
	return res, err
}

func (st *servingStack) ingest(facts string) error {
	body, err := json.Marshal(serve.IngestRequest{Facts: facts})
	if err != nil {
		return err
	}
	resp, err := st.client.Post(st.url+"/admin/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("ingest status %d", resp.StatusCode)
	}
	return nil
}

// request is one scheduled /query of the open-loop generator.
type request struct {
	tpl  int
	src  string
	due  time.Time
	sent time.Time // zero: never sent (still queued when its step ended)
	recv time.Time
	// slept reports that a connection was idle when the request fell due,
	// so sent−due is the generator's own lateness, not queueing.
	slept bool
	res   *queryResult
	err   error
}

func (r *request) ms() float64 { return float64(r.recv.Sub(r.due).Nanoseconds()) / 1e6 }

// ingestRec is one applied ingest: version v+1 exists from done on, and may
// exist from start on.
type ingestRec struct {
	start, done time.Time
	err         error
}

// ingestStream posts batches[k] at start+k·ingestEvery until stop closes.
type ingestStream struct {
	recs []ingestRec
	done chan struct{}
}

func startIngest(st *servingStack, batches []string, start time.Time, stop <-chan struct{}) *ingestStream {
	is := &ingestStream{done: make(chan struct{})}
	go func() {
		defer close(is.done)
		for k, facts := range batches {
			select {
			case <-stop:
				return
			case <-time.After(time.Until(start.Add(time.Duration(k) * ingestEvery))):
			}
			t0 := time.Now()
			err := st.ingest(facts)
			is.recs = append(is.recs, ingestRec{start: t0, done: time.Now(), err: err})
		}
	}()
	return is
}

// runStep offers rate requests per second for d through conns
// connections, open loop: request i falls due at start + i/rate whatever
// happened to earlier ones, and waits for a free connection if none is
// idle. Requests still waiting when the step ends are not sent; they are
// the step's final backlog.
func runStep(st *servingStack, reqs []*request, rate float64, d time.Duration, conns int, trace bool) {
	start := time.Now()
	end := start.Add(d)
	for i, r := range reqs {
		r.due = start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				r := reqs[i]
				if wait := time.Until(r.due); wait > 0 {
					time.Sleep(wait)
					r.slept = true
				}
				if !time.Now().Before(end) {
					return
				}
				r.sent = time.Now()
				r.res, r.err = st.query(r.src, trace)
				r.recv = time.Now()
			}
		}()
	}
	wg.Wait()
}

// stepStats summarises one ladder step.
type stepStats struct {
	rate       float64
	offered    int // requests due before the step ended
	sent       int
	lat        []float64 // ms from due to response, successful requests
	tail       tailStat
	backlogMid int
	backlogEnd int
	lateMs     []float64 // generator lateness where a connection was idle
}

func summarise(reqs []*request, rate float64, d time.Duration) stepStats {
	s := stepStats{rate: rate}
	if len(reqs) == 0 {
		return s
	}
	start := reqs[0].due
	mid, end := start.Add(d/2), start.Add(d)
	backlogAt := func(t time.Time) int {
		n := 0
		for _, r := range reqs {
			if !r.due.After(t) && (r.sent.IsZero() || r.sent.After(t)) {
				n++
			}
		}
		return n
	}
	for _, r := range reqs {
		if r.due.Before(end) {
			s.offered++
		}
		if r.sent.IsZero() {
			continue
		}
		s.sent++
		if r.slept {
			s.lateMs = append(s.lateMs, float64(r.sent.Sub(r.due).Nanoseconds())/1e6)
		}
		if r.err == nil && r.res.status == http.StatusOK {
			s.lat = append(s.lat, r.ms())
		}
	}
	s.backlogMid, s.backlogEnd = backlogAt(mid), backlogAt(end)
	s.tail = tail(s.lat, tailBeyond)
	return s
}

// grew reports a growing backlog: more requests waiting at the end of the
// step than at its middle, beyond what one burst of the connections'
// worth explains.
func (s stepStats) grew(conns int) bool { return s.backlogEnd > s.backlogMid+conns }

// meets reports whether the step met the tail limit with no growing
// backlog and no failed request.
func (s stepStats) meets(conns int) bool {
	return s.sent == len(s.lat) && s.tail.Value <= float64(tailLimit.Milliseconds()) && !s.grew(conns)
}

// serveInputs is the seeded request and ingest stream.
type serveInputs struct {
	steps   [][]*request
	batches []string
}

func makeServeInputs(seed int64, seconds time.Duration, ladder []float64) (*serveInputs, error) {
	mix, err := gen.NewQueryMix(gen.ServingPool(), serveSkew)
	if err != nil {
		return nil, err
	}
	pool := gen.ServingPool()
	rng := rand.New(rand.NewSource(seed + 1))
	in := &serveInputs{}
	salt := 0
	for i, rate := range ladder {
		n := int(rate*stepDuration(seconds, i, len(ladder)).Seconds()) + 1
		reqs := make([]*request, 0, n)
		for _, tpl := range mixSequence(mix, n, rng) {
			salt++
			src, err := gen.RenameQuery(pool[tpl].Src, salt)
			if err != nil {
				return nil, err
			}
			reqs = append(reqs, &request{tpl: tpl, src: src})
		}
		in.steps = append(in.steps, reqs)
	}
	for k := 0; k <= int(seconds/ingestEvery)+1; k++ {
		var b strings.Builder
		for _, r := range []string{"r1", "r2", "r3", "r4"} {
			fmt.Fprintf(&b, "%s(d%d, d%d).\n", r, rng.Intn(serveDomain), rng.Intn(serveDomain))
		}
		in.batches = append(in.batches, b.String())
	}
	return in, nil
}

// mixSequence returns n template indices holding each template its exact
// share of the mix, spread evenly and then shuffled within consecutive
// blocks of mixBlock requests by the seeded rng. Independent draws would
// let the count of the rare, expensive cycle4 swing by a quarter from seed
// to seed, and let its arrivals bunch up at random; both move every
// aggregate of a run more than any change to the code under test would.
func mixSequence(mix *gen.QueryMix, n int, rng *rand.Rand) []int {
	k := len(mix.Templates())
	// Smooth weighted round robin: each step credits every template its
	// weight and picks the most credited, which spaces each template at
	// its share's interval.
	credit := make([]float64, k)
	seq := make([]int, n)
	for i := range seq {
		best := 0
		for t := range credit {
			credit[t] += mix.Weight(t)
			if credit[t] > credit[best] {
				best = t
			}
		}
		credit[best]--
		seq[i] = best
	}
	for lo := 0; lo < n; lo += mixBlock {
		block := seq[lo:min(lo+mixBlock, n)]
		rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
	}
	return seq
}

// stepDuration splits the run: three quarters to the reference rate, the
// rest evenly over the other ladder rates.
func stepDuration(total time.Duration, i, steps int) time.Duration {
	if steps == 1 {
		return total
	}
	if i == 0 {
		return total * 3 / 4
	}
	return total / 4 / time.Duration(steps-1)
}

// runServeMix is the serve-mix workload.
func runServeMix(cfg runConfig) (*report, error) {
	rep := newReport()
	conns := cfg.procs
	st, setupS, err := medianSetup(func() (*servingStack, error) { return startServing(conns) }, (*servingStack).close)
	if err != nil {
		return nil, err
	}
	defer st.close()
	ladder := serveLadder
	if cfg.rec != nil {
		ladder = ladder[:1]
	}
	in, err := makeServeInputs(cfg.seed, cfg.seconds, ladder)
	if err != nil {
		return nil, err
	}
	if cfg.rec != nil {
		return rep, traceServeMix(cfg, st, in, rep)
	}

	m0 := st.srv.Metrics()
	rss := startRSS(time.Second)
	a0 := allocMB()
	stop := make(chan struct{})
	start := time.Now()
	ingests := startIngest(st, in.batches, start, stop)
	var steps []stepStats
	for i, rate := range ladder {
		d := stepDuration(cfg.seconds, i, len(ladder))
		runStep(st, in.steps[i], rate, d, conns, false)
		steps = append(steps, summarise(in.steps[i], rate, d))
	}
	elapsed := time.Since(start)
	close(stop)
	<-ingests.done
	allocated := allocMB() - a0
	peakRSS := rss.finish()
	m1 := st.srv.Metrics()

	var all []*request
	for _, reqs := range in.steps {
		all = append(all, reqs...)
	}
	if err := checkServeAnswers(st, all, in.batches, ingests.recs, rep); err != nil {
		return nil, err
	}

	ref := steps[0]
	done := 0
	for _, s := range steps {
		done += len(s.lat)
	}
	fhw, err := servedFHW(st)
	if err != nil {
		return nil, err
	}
	rep.set("setup_s", setupS)
	// Responses per second over the whole ladder: the offered load while
	// the server keeps up, less once the top rates saturate it.
	rep.set("ops_per_s", float64(done)/elapsed.Seconds())
	rep.set("lat_p50_ms", median(ref.lat))
	rep.set("lat_tail_ms", ref.tail.Value)
	rep.set("alloc_mb_per_op", allocated/float64(max(done, 1)))
	rep.set("plan_fhw_mean", fhw)
	rep.set("peak_rss_mb", peakRSS)

	maxRate := 0.0
	for _, s := range steps {
		if s.meets(conns) {
			maxRate = max(maxRate, s.rate)
		}
		var late float64
		if len(s.lateMs) > 0 {
			late = tail(s.lateMs, tailBeyond).Value
		}
		rep.note("serve-mix %4.0f qps: offered %d, sent %d, ok %d, p50 %.1fms, tail %.1fms %s, backlog mid %d end %d, generator late %.2fms (tail of %d)",
			s.rate, s.offered, s.sent, len(s.lat), median(s.lat), s.tail.Value, s.tail, s.backlogMid, s.backlogEnd, late, len(s.lateMs))
	}
	rep.note("serve-mix: reference rate %.0f qps, tail %s; %d connections; %d ingests; server: %d requests, %d coalesced, %d rejected",
		ref.rate, ref.tail, conns, len(ingests.recs), m1.Requests-m0.Requests, m1.Coalesced-m0.Coalesced, m1.Rejected-m0.Rejected)
	rep.addExtra("max_rate_qps", maxRate, "1/s", fmt.Sprintf("highest of %v meeting tail ≤ %v without a growing backlog", ladder, tailLimit))
	var ingestMs []float64
	for _, r := range ingests.recs {
		ingestMs = append(ingestMs, float64(r.done.Sub(r.start).Nanoseconds())/1e6)
	}
	rep.addExtra("ingest_p50_ms", median(ingestMs), "ms", fmt.Sprintf("%d ingests, one every %v", len(ingestMs), ingestEvery))
	byTpl := map[int][]float64{}
	for _, r := range in.steps[0] {
		if !r.sent.IsZero() && r.err == nil && r.res.status == http.StatusOK {
			byTpl[r.tpl] = append(byTpl[r.tpl], r.ms())
		}
	}
	for i, tpl := range gen.ServingPool() {
		rep.addExtra(tpl.Name+"_p50_ms", median(byTpl[i]), "ms", fmt.Sprintf("at the reference rate, n=%d", len(byTpl[i])))
	}
	return rep, nil
}

// servedFHW compiles every template through the server's own PlanCache
// with the server's options — a hit on the plans the run used — and
// returns their mean fractional width.
func servedFHW(st *servingStack) (float64, error) {
	opts, err := servedOpts(st)
	if err != nil {
		return 0, err
	}
	pool := gen.ServingPool()
	total := 0.0
	for _, tpl := range pool {
		p, err := st.srv.Cache().Compile(context.Background(), hypertree.MustParseQuery(tpl.Src), opts...)
		if err != nil {
			return 0, err
		}
		total += p.FractionalWidth()
	}
	return total / float64(len(pool)), nil
}

// servedOpts are the options serve.Server compiles with under its
// defaults: the auto race under the default step budget, the auto kernel,
// and the live statistics snapshot as cost model.
func servedOpts(st *servingStack) ([]hypertree.CompileOption, error) {
	k, err := hypertree.ParseJoinKernel("auto")
	if err != nil {
		return nil, err
	}
	return []hypertree.CompileOption{
		hypertree.WithAutoStrategy(),
		hypertree.WithStepBudget(serveStepBudget),
		hypertree.WithJoinKernel(k),
		hypertree.WithCostModel(st.srv.LiveStats()),
	}, nil
}

// answer is a template's verdict (Boolean) or row count.
type answer struct {
	boolean bool
	rows    int
}

// checkServeAnswers checks every response against a reference computed in
// process for each database version the request may have run against: the
// base database plus the first v ingest batches. A request saw at least
// every ingest that finished before it was sent — for a coalesced request,
// before its leader could have started, at most one request timeout
// earlier — and at most every ingest that started before its response.
// References come from the naive join strategy, which shares no
// decomposition, kernel or cache with the served plans.
func checkServeAnswers(st *servingStack, reqs []*request, batches []string, ingests []ingestRec, rep *report) error {
	pool := gen.ServingPool()
	versions := []*hypertree.Database{st.baseDB}
	for k, rec := range ingests {
		if rec.err != nil {
			return fmt.Errorf("ingest %d: %w", k, rec.err)
		}
		next := versions[k].Clone()
		if err := next.ParseFacts(batches[k]); err != nil {
			return err
		}
		versions = append(versions, next)
	}
	refPlans := make([]*hypertree.Plan, len(pool))
	for i, tpl := range pool {
		p, err := hypertree.Compile(hypertree.MustParseQuery(tpl.Src), hypertree.WithStrategy(hypertree.StrategyNaive))
		if err != nil {
			return err
		}
		refPlans[i] = p
	}
	memo := map[[2]int]answer{}
	ref := func(tpl, v int) (answer, error) {
		if a, ok := memo[[2]int{tpl, v}]; ok {
			return a, nil
		}
		t, err := refPlans[tpl].Execute(context.Background(), versions[v])
		if err != nil {
			return answer{}, err
		}
		a := answer{boolean: !t.Empty(), rows: t.Rows()}
		memo[[2]int{tpl, v}] = a
		return a, nil
	}
	const leaderSlack = 5 * time.Second // serve's default request timeout
	for _, r := range reqs {
		if r.sent.IsZero() {
			continue
		}
		rep.attempted++
		if r.err != nil || r.res.status != http.StatusOK {
			rep.failed++
			if rep.failed <= 5 {
				rep.note("request failed: status %v err %v", statusOf(r), r.err)
			}
			continue
		}
		seenBy := r.sent
		if r.res.Coalesced {
			seenBy = seenBy.Add(-leaderSlack)
		}
		lo, hi := 0, 0
		for _, in := range ingests {
			if in.done.Before(seenBy) {
				lo++
			}
			if in.start.Before(r.recv) {
				hi++
			}
		}
		matched := false
		for v := lo; v <= hi && !matched; v++ {
			a, err := ref(r.tpl, v)
			if err != nil {
				return err
			}
			if r.res.Boolean != nil {
				matched = *r.res.Boolean == a.boolean
			} else {
				matched = r.res.RowCount == a.rows
			}
		}
		if !matched {
			rep.failed++
			rep.wrong++
			if rep.wrong <= 5 {
				rep.note("%s: answer matches no database version in [%d, %d]", pool[r.tpl].Name, lo, hi)
			}
		}
	}
	return nil
}

func statusOf(r *request) int {
	if r.res == nil {
		return 0
	}
	return r.res.status
}

// traceServeMix is the traced serve-mix run at the reference rate: half
// the time untraced, half with "trace": true on every request; then
// in-process replays of the served plans for the kernel split and the
// layer replays on the serving database.
func traceServeMix(cfg runConfig, st *servingStack, in *serveInputs, rep *report) error {
	conns, rate := cfg.procs, serveLadder[0]
	reqs := in.steps[0]
	half := len(reqs) / 2
	stop := make(chan struct{})
	ingests := startIngest(st, in.batches, time.Now(), stop)
	runStep(st, reqs[:half], rate, cfg.seconds/2, conns, false)
	m0 := st.srv.Metrics()
	h0, x0 := hypertree.ColumnarCacheMetrics()
	runStep(st, reqs[half:], rate, cfg.seconds/2, conns, true)
	h1, x1 := hypertree.ColumnarCacheMetrics()
	m1 := st.srv.Metrics()
	close(stop)
	<-ingests.done
	if err := checkServeAnswers(st, reqs, in.batches, ingests.recs, rep); err != nil {
		return err
	}

	sendMs := func(rs []*request) []float64 {
		var out []float64
		for _, r := range rs {
			if !r.sent.IsZero() && r.err == nil && r.res.status == http.StatusOK {
				out = append(out, float64(r.recv.Sub(r.sent).Nanoseconds())/1e6)
			}
		}
		return out
	}
	rep.set("obs.trace_overhead_share", overheadShare(sendMs(reqs[:half]), sendMs(reqs[half:])))

	var overhead []float64
	coalesced, ok := 0, 0
	var maxRows int64
	qerrs := map[string][]float64{}
	for i, r := range reqs[half:] {
		if r.sent.IsZero() || r.err != nil || r.res.status != http.StatusOK {
			continue
		}
		ok++
		// The server reports its compile and execute times but not where
		// they fell inside the request; they ran back to back, so placing
		// them from the send onward gives their union its true length.
		op := cfg.rec.add("serve/request", -1, i, r.sent, r.recv)
		compileEnd := r.sent.Add(time.Duration(r.res.CompileMicros) * time.Microsecond)
		cfg.rec.add("plancache/compile", op, i, r.sent, compileEnd)
		cfg.rec.add("plan/execute", op, i, compileEnd, compileEnd.Add(time.Duration(r.res.ExecMicros)*time.Microsecond))
		overhead = append(overhead, float64(r.recv.Sub(r.sent).Nanoseconds())/1e6-float64(r.res.CompileMicros+r.res.ExecMicros)/1e3)
		if r.res.Coalesced {
			coalesced++
		}
		for _, sp := range r.res.Trace {
			if sp.Name != "exec/node" {
				continue
			}
			maxRows = max(maxRows, sp.Rows)
			if sp.QError > 0 {
				key := fmt.Sprintf("%s %d %s", gen.ServingPool()[r.tpl].Name, sp.Node, sp.Label)
				qerrs[key] = append(qerrs[key], sp.QError)
			}
		}
	}
	rep.set("serve.overhead_ms", median(overhead))
	rep.set("serve.coalesced_share", float64(coalesced)/float64(max(ok, 1)))
	rep.set("serve.rejected", float64(m1.Rejected-m0.Rejected))
	if n := (m1.Cache.Hits - m0.Cache.Hits) + (m1.Cache.Misses - m0.Cache.Misses); n > 0 {
		rep.set("plancache.hit_ratio", float64(m1.Cache.Hits-m0.Cache.Hits)/float64(n))
	}
	rep.set("plancache.evictions", float64(m1.Cache.Evictions-m0.Cache.Evictions))
	if n := (h1 - h0) + (x1 - x0); n > 0 {
		rep.set("hdeval.enc_hit_ratio", float64(h1-h0)/float64(n))
	}

	if err := replayServed(cfg, st, rep); err != nil {
		return err
	}
	// The responses' own traces are the served executions: they set the
	// worst node-table size and q-error, overriding the replays'.
	rep.set("hdeval.node_rows", float64(maxRows))
	rep.set("hdeval.qerror_p50", worstNodeMedian(qerrs))

	var srcs []string
	for _, r := range reqs {
		srcs = append(srcs, r.src)
	}
	if err := cqLayer(rep, srcs); err != nil {
		return err
	}
	statsLayer(rep, st.srv.LiveDB())
	return relationLayer(rep, st.srv.LiveDB(), "r1", "r2")
}

// replayServed executes each template's served plan in process under a
// program trace, as many times as its share of the mix (out of 20), so the
// per-operation layer times are mix-weighted. The plans come from the
// server's PlanCache, so the lookups are timed as cache hits.
func replayServed(cfg runConfig, st *servingStack, rep *report) error {
	opts, err := servedOpts(st)
	if err != nil {
		return err
	}
	mix, err := gen.NewQueryMix(gen.ServingPool(), serveSkew)
	if err != nil {
		return err
	}
	db := st.srv.LiveDB()
	var lookups []float64
	ops := 0
	for i, tpl := range gen.ServingPool() {
		n := max(1, int(mix.Weight(i)*20+0.5))
		for j := 0; j < n; j++ {
			req := 1_000_000 + ops
			q := hypertree.MustParseQuery(tpl.Src)
			t0 := time.Now()
			p, err := st.srv.Cache().Compile(context.Background(), q, opts...)
			t1 := time.Now()
			if err != nil {
				return err
			}
			lookups = append(lookups, float64(t1.Sub(t0).Nanoseconds())/1e3)
			tr := hypertree.NewTrace()
			if _, err := p.Execute(hypertree.ContextWithTrace(context.Background(), tr), db); err != nil {
				return err
			}
			t2 := time.Now()
			op := cfg.rec.add("op/replay", -1, req, t0, t2)
			cfg.rec.add("plancache/lookup", op, req, t0, t1)
			cfg.rec.fold(cfg.rec.add("plan/execute", op, req, t1, t2), req, tr)
			ops++
		}
	}
	rep.set("plancache.lookup_us", median(lookups))
	var replay []span
	for _, s := range cfg.rec.all() {
		if s.Req >= 1_000_000 {
			replay = append(replay, s)
		}
	}
	execLayers(rep, replay, ops)
	return nil
}
