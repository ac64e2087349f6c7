package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"hypertree"
	"hypertree/internal/gen"
)

// streamCacheSize is the PlanCache capacity of compile-stream: below the
// number of distinct shapes, so cycling through them misses and evicts on
// every compile.
const streamCacheSize = 32

// serveStepBudget is serve.Config's default decomposition step budget,
// the one cmd/hdserve runs with.
const serveStepBudget = 2_000_000

// streamShapeSeed fixes the pool of random CSP shapes and the statistics
// each shape is priced against; the run's seed orders the stream and
// renames every request. How hard a random CSP is for the exact engine
// varies a lot between draws of the same size — whether it finishes in a
// few milliseconds or runs its step budget out — so a per-seed pool moved
// compiles per second by a fifth from seed to seed. The statistics steer
// the cost-ranked heuristics too: with per-seed statistics one shape's
// compile took 61 ms under one seed and 84 ms under another.
const streamShapeSeed = 1

// streamShape is one distinct query of the compile stream with the
// statistics its cost model prices plans against.
type streamShape struct {
	name  string
	src   string
	stats *hypertree.Stats
	// wantFHW is the known optimal fractional hypertree width of an
	// anchor the race must reach; 0 when no width is pinned.
	wantFHW float64
}

type streamSetup struct {
	shapes []streamShape
	cache  *hypertree.PlanCache
	kernel hypertree.JoinKernel
	rng    *rand.Rand // reorders each pass
}

// streamShapes generates the pool: random CSPs stratified over the
// variable count (6–23) and three edge densities, plus fixed anchors with
// known widths, each with statistics collected over a small generated
// database.
func streamShapes() ([]streamShape, error) {
	rng := rand.New(rand.NewSource(streamShapeSeed))
	var out []streamShape
	add := func(name string, q *hypertree.Query, fhw float64) {
		out = append(out, streamShape{name: name, src: q.String(), wantFHW: fhw})
	}
	for nv := 6; nv <= 23; nv++ {
		for _, ratio := range []float64{1, 1.5, 2} {
			ne := int(math.Round(float64(nv) * ratio))
			add(fmt.Sprintf("csp-%d-%d", nv, ne), gen.RandomCSP(rng, nv, ne, 3), 0)
		}
	}
	for i, q := range []*hypertree.Query{gen.Q1(), gen.Q2(), gen.Q3(), gen.Q4(), gen.Q5()} {
		add(fmt.Sprintf("Q%d", i+1), q, 0)
	}
	for _, rc := range [][2]int{{3, 3}, {3, 4}, {3, 5}, {4, 4}, {4, 5}} {
		add(fmt.Sprintf("grid-%dx%d", rc[0], rc[1]), gen.Grid(rc[0], rc[1]), 0)
	}
	for n := 4; n <= 7; n++ {
		add(fmt.Sprintf("K%d", n), gen.CliqueBinary(n), float64(n)/2) // fhw(K_n) = n/2
	}
	add("C3", gen.Cycle(3), 1.5)
	for n := 4; n <= 8; n++ {
		add(fmt.Sprintf("C%d", n), gen.Cycle(n), 2) // fhw(C_n) = 2 for n ≥ 4
	}
	for i := range out {
		q, err := hypertree.ParseQuery(out[i].src)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", out[i].name, err)
		}
		out[i].stats = hypertree.CollectStats(gen.RandomDatabase(rng, q, 64, 16))
	}
	return out, nil
}

// buildStream is the compile-stream set-up: generate the pool, order it by
// the seed and create the undersized PlanCache.
func buildStream(seed int64) (*streamSetup, error) {
	kernel, err := hypertree.ParseJoinKernel("auto")
	if err != nil {
		return nil, err
	}
	shapes, err := streamShapes()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(shapes), func(i, j int) { shapes[i], shapes[j] = shapes[j], shapes[i] })
	return &streamSetup{shapes: shapes, cache: hypertree.NewPlanCache(streamCacheSize), kernel: kernel, rng: rng}, nil
}

// opts are hdserve's compile options for one shape.
func (s *streamSetup) opts(sh *streamShape) []hypertree.CompileOption {
	return []hypertree.CompileOption{
		hypertree.WithAutoStrategy(),
		hypertree.WithStepBudget(serveStepBudget),
		hypertree.WithJoinKernel(s.kernel),
		hypertree.WithCostModel(sh.stats),
	}
}

// compiled is one compile of the stream, kept for checking until its pass
// ends.
type compiled struct {
	shape int
	plan  *hypertree.Plan
	err   error
}

// streamRun is what a stretch of passes leaves once its plans are checked.
type streamRun struct {
	lat    []float64 // each compile's latency in ms, parse included
	cpu    []float64 // the process CPU time each compile took, in ms
	shapes []int     // the shape each compile was of
	fhw    float64   // the compiled plans' fractional widths, summed
}

// passOrder returns the order of the next pass: the first half of the
// shapes and then the second, each half shuffled afresh. A compile pays
// for the GC cycle its predecessor's garbage started, so a fixed order
// would charge the same few shapes every pass and move the median compile
// with the seed. Keeping the halves apart leaves at least half the pool
// (37 shapes) between two compiles of one shape, more than the cache
// holds, so every compile still misses.
func (s *streamSetup) passOrder() []int {
	order := make([]int, len(s.shapes))
	for i := range order {
		order[i] = i
	}
	h := len(order) / 2
	s.rng.Shuffle(h, func(i, j int) { order[i], order[j] = order[j], order[i] })
	s.rng.Shuffle(len(order)-h, func(i, j int) { order[h+i], order[h+j] = order[h+j], order[h+i] })
	return order
}

// streamPasses compiles whole passes over the shapes — each one α-renamed
// afresh, so parsing is real work and only the canonical form repeats —
// until d has elapsed. After each pass, off the timed path, it checks the
// pass's plans into rep and lets them go: plans kept for the whole run
// would grow the heap with the number of passes, and so tie peak_rss_mb to
// the machine's speed.
func streamPasses(s *streamSetup, d time.Duration, rec *recorder, rss *rssSampler, salt *int, rep *report) (streamRun, error) {
	var run streamRun
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < d; pass++ {
		out := make([]compiled, 0, len(s.shapes))
		for _, i := range s.passOrder() {
			sh := &s.shapes[i]
			*salt++
			src, err := gen.RenameQuery(sh.src, *salt)
			if err != nil {
				return run, err
			}
			ctx := context.Background()
			var tr *hypertree.Trace
			if rec != nil {
				tr = hypertree.NewTrace()
				ctx = hypertree.ContextWithTrace(ctx, tr)
			}
			opts := s.opts(sh)
			c0 := cpuMs()
			t0 := time.Now()
			q, perr := hypertree.ParseQuery(src)
			t1 := time.Now()
			var plan *hypertree.Plan
			if perr == nil {
				plan, perr = s.cache.Compile(ctx, q, opts...)
			}
			t2 := time.Now()
			run.cpu = append(run.cpu, cpuMs()-c0)
			run.lat = append(run.lat, float64(t2.Sub(t0).Nanoseconds())/1e6)
			run.shapes = append(run.shapes, i)
			out = append(out, compiled{shape: i, plan: plan, err: perr})
			if rec != nil {
				req := len(run.lat)
				op := rec.add("op/compile", -1, req, t0, t2)
				rec.add("cq/parse", op, req, t0, t1)
				rec.fold(rec.add("plancache/compile", op, req, t1, t2), req, tr)
			}
		}
		for _, c := range out {
			if c.plan != nil {
				run.fhw += c.plan.FractionalWidth()
			}
		}
		checkCompiles(s, out, rep)
		if rss != nil {
			rss.cut()
		}
	}
	return run, nil
}

// check validates one compiled plan in its own mode (HD, GHD or FHD; a
// join tree for acyclic plans) and, for anchors, its fractional width.
func (s *streamSetup) check(c compiled) error {
	if c.err != nil {
		return c.err
	}
	p, sh := c.plan, &s.shapes[c.shape]
	switch d := p.Decomposition(); {
	case p.Strategy() == hypertree.StrategyAcyclic:
		if !hypertree.IsAcyclic(p.Query()) {
			return fmt.Errorf("%s: acyclic plan for a cyclic query", sh.name)
		}
	case d == nil:
		return fmt.Errorf("%s: %s plan without a decomposition", sh.name, p)
	case p.Fractional():
		if err := hypertree.ValidateFHD(d); err != nil {
			return fmt.Errorf("%s: %w", sh.name, err)
		}
	case p.Generalized():
		if err := hypertree.ValidateGHD(d); err != nil {
			return fmt.Errorf("%s: %w", sh.name, err)
		}
	default:
		if err := hypertree.ValidateHD(d); err != nil {
			return fmt.Errorf("%s: %w", sh.name, err)
		}
	}
	if sh.wantFHW > 0 && math.Abs(p.FractionalWidth()-sh.wantFHW) > 1e-6 {
		return fmt.Errorf("%s: fractional width %.4g, known optimum %.4g", sh.name, p.FractionalWidth(), sh.wantFHW)
	}
	return nil
}

// runCompileStream is the compile-stream workload: one caller, closed
// loop, every compile a PlanCache miss that evicts.
func runCompileStream(cfg runConfig) (*report, error) {
	rep := newReport()
	s, setupS, err := medianSetup(func() (*streamSetup, error) { return buildStream(cfg.seed) }, func(*streamSetup) {})
	if err != nil {
		return nil, err
	}
	salt := 0
	if cfg.rec != nil {
		return rep, traceCompileStream(cfg, s, rep, &salt)
	}
	// One unmeasured pass first: its plans are checked like the rest, and
	// the heap reaches its working size before the clock starts.
	if _, err := streamPasses(s, 0, nil, nil, &salt, rep); err != nil {
		return nil, err
	}
	rss := startRSS(0)
	a0 := allocMB()
	run, err := streamPasses(s, cfg.seconds, nil, rss, &salt, rep)
	if err != nil {
		return nil, err
	}
	lat := run.lat
	allocPerOp := (allocMB() - a0) / float64(len(lat))
	rep.set("peak_rss_mb", rss.finish())

	// Each shape's median compile over the passes. A compile of a few
	// milliseconds that a GC cycle or the race's goroutines landing on one
	// core doubles moves its shape's median no more than the passes it
	// falls in; a pass's throughput moved by a fifth that way. Throughput
	// is counted per CPU second: the race waits for all three entrants, so
	// when the hypervisor takes one of two cores away the compile's wall
	// time grows by far more than its work. At 26% steal, compiles per
	// wall second fell by a third and per CPU second by a twelfth.
	t := tail(lat, tailBeyond)
	m := s.cache.Metrics()
	rep.set("setup_s", setupS)
	rep.set("ops_per_s", float64(len(s.shapes))/(sum(shapeMedians(run.cpu, run.shapes, len(s.shapes)))/1e3))
	rep.set("lat_p50_ms", median(shapeMedians(lat, run.shapes, len(s.shapes))))
	rep.set("lat_tail_ms", t.Value)
	rep.set("alloc_mb_per_op", allocPerOp)
	rep.set("plan_fhw_mean", run.fhw/float64(len(lat)))
	rep.note("compile-stream: %d shapes, %d compiles in %d passes; cache %d hits / %d misses / %d evictions; tail %s",
		len(s.shapes), len(lat), len(lat)/len(s.shapes), m.Hits, m.Misses, m.Evictions, t)
	return rep, nil
}

// shapeMedians returns each shape's median of xs, where shapes[i] is the
// shape of xs[i].
func shapeMedians(xs []float64, shapes []int, n int) []float64 {
	per := make([][]float64, n)
	for i, x := range xs {
		per[shapes[i]] = append(per[shapes[i]], x)
	}
	meds := make([]float64, n)
	for i, p := range per {
		meds[i] = median(p)
	}
	return meds
}

// checkCompiles validates compiles off the timed path.
func checkCompiles(s *streamSetup, plans []compiled, rep *report) {
	for _, c := range plans {
		rep.attempted++
		if err := s.check(c); err != nil {
			rep.failed++
			if c.err == nil {
				rep.wrong++
			}
			if rep.failed <= 5 {
				rep.note("compile check failed: %v", err)
			}
		}
	}
}

// traceCompileStream is the traced run: half the time untraced, half
// traced, then each engine of the race timed alone on every shape.
func traceCompileStream(cfg runConfig, s *streamSetup, rep *report, salt *int) error {
	untraced, err := streamPasses(s, cfg.seconds/2, nil, nil, salt, rep)
	if err != nil {
		return err
	}
	m1 := s.cache.Metrics()
	traced, err := streamPasses(s, cfg.seconds/2, cfg.rec, nil, salt, rep)
	if err != nil {
		return err
	}
	m2 := s.cache.Metrics()
	rep.set("obs.trace_overhead_share", overheadShare(untraced.lat, traced.lat))
	if n := (m2.Hits - m1.Hits) + (m2.Misses - m1.Misses); n > 0 {
		rep.set("plancache.hit_ratio", float64(m2.Hits-m1.Hits)/float64(n))
	}
	rep.set("plancache.evictions", float64(m2.Evictions-m1.Evictions))

	// Per compile: the cache's own cost is its call minus the compile span
	// inside it; the race is the union of its entrants' spans.
	spans := cfg.rec.all()
	children := map[int][]span{}
	for _, sp := range spans {
		if sp.Parent >= 0 {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	var lookup, race []float64
	wins := map[string]int{}
	for _, sp := range spans {
		if sp.Name != "plancache/compile" {
			continue
		}
		inner := time.Duration(0)
		for _, c := range children[sp.ID] {
			if c.Name != "compile" {
				continue
			}
			inner += c.dur()
			var entrants []span
			for _, e := range children[c.ID] {
				if e.Name == "compile/race" {
					entrants = append(entrants, e)
					if strings.HasSuffix(e.Label, "[win]") {
						wins[engineOf(e.Label)]++
					}
				}
			}
			if len(entrants) > 0 {
				race = append(race, float64(coveredBy(c.Start, c.End, entrants))/1e6)
			}
		}
		lookup = append(lookup, float64((sp.dur()-inner).Nanoseconds())/1e3)
	}
	rep.set("plancache.lookup_us", median(lookup))
	rep.set("race.ms", mean(race))
	for _, e := range []string{"k-decomp", "ghd", "fhd"} {
		rep.set("race.win_share."+e, float64(wins[e])/float64(max(len(race), 1)))
	}

	var srcs []string
	for _, sh := range s.shapes {
		srcs = append(srcs, sh.src)
	}
	if err := cqLayer(rep, srcs); err != nil {
		return err
	}
	return enginesAlone(s, rep)
}

// engineOf names the engine of a race span label ("parallel-k-decomp
// width=2 ..." → "k-decomp").
func engineOf(label string) string {
	name, _, _ := strings.Cut(label, " ")
	switch {
	case strings.HasSuffix(name, "k-decomp"):
		return "k-decomp"
	case strings.HasPrefix(name, "fhd"):
		return "fhd"
	case strings.HasPrefix(name, "ghd"):
		return "ghd"
	}
	return name
}

// enginesAlone times each race entrant by itself on every cyclic shape's
// hypergraph under the request the race hands it (hdserve's step budget,
// the shape's edge cardinalities), reporting the mean per shape.
func enginesAlone(s *streamSetup, rep *report) error {
	ctx := context.Background()
	engines := []struct {
		metric string
		dec    hypertree.Decomposer
	}{
		{"decomp.ms", hypertree.KDecomposer()},
		{"ghd.ms", hypertree.GreedyDecomposer()},
		{"fhd.ms", hypertree.FractionalDecomposer()},
	}
	times := map[string][]float64{}
	exhausted, cyclic := 0, 0
	for _, sh := range s.shapes {
		q, err := hypertree.ParseQuery(sh.src)
		if err != nil {
			return err
		}
		if hypertree.IsAcyclic(q) {
			continue
		}
		cyclic++
		h, edgeToAtom := q.Hypergraph()
		req := hypertree.DecomposeRequest{StepBudget: serveStepBudget, EdgeRows: make([]float64, len(edgeToAtom))}
		for e, ai := range edgeToAtom {
			req.EdgeRows[e] = float64(sh.stats.Rows(q.Atoms[ai].Pred))
		}
		for _, en := range engines {
			t0 := time.Now()
			_, err := en.dec.Decompose(ctx, h, req)
			times[en.metric] = append(times[en.metric], float64(time.Since(t0).Nanoseconds())/1e6)
			if errors.Is(err, hypertree.ErrStepBudget) && en.metric == "decomp.ms" {
				exhausted++
			}
		}
	}
	for _, en := range engines {
		rep.set(en.metric, mean(times[en.metric]))
	}
	rep.set("decomp.budget_exhausted_share", float64(exhausted)/float64(max(cyclic, 1)))
	return nil
}
