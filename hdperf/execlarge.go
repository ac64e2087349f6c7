package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"hypertree"
	"hypertree/internal/gen"
	"hypertree/internal/relation"
)

// execLeg is one shape of the exec-large round: a compiled plan, the
// database it runs on, and the reference answer it must reproduce.
type execLeg struct {
	name    string
	plan    *hypertree.Plan
	db      *hypertree.Database
	pdb     *hypertree.PartitionedDB // non-nil: the sharded Boolean leg
	boolean bool

	wantBool  bool
	wantTable *hypertree.Table
}

// run executes the leg once and returns its answer: the Boolean, or the
// table for an enumerating leg.
func (l *execLeg) run(ctx context.Context) (v bool, t *hypertree.Table, err error) {
	switch {
	case l.pdb != nil:
		v, err = l.plan.ExecuteBooleanSharded(ctx, l.pdb)
	case l.boolean:
		v, err = l.plan.ExecuteBoolean(ctx, l.db)
	default:
		t, err = l.plan.Execute(ctx, l.db)
	}
	return v, t, err
}

// matches reports whether an answer of run is the reference answer.
func (l *execLeg) matches(v bool, t *hypertree.Table) bool {
	if l.pdb != nil || l.boolean {
		return v == l.wantBool
	}
	return t != nil && t.Equal(l.wantTable)
}

type execSetup struct {
	legs  []*execLeg
	plans []*hypertree.Plan // the distinct compiled plans
	dbs   []*hypertree.Database
}

// star4Query is the E29 4-arm star: arms a_i(H, X_i) share only the hub.
const star4Query = `ans(H) :- a1(H, X1), a2(H, X2), a3(H, X3), a4(H, X4).`

// buildExecDatabases generates the exec-large inputs from the seed.
func buildExecDatabases(seed int64) (cycle, dense, costsep, star *hypertree.Database) {
	c3 := gen.Cycle(3)
	cycle = gen.LargeRandomDatabase(rand.New(rand.NewSource(seed)), c3, 200_000, 100_000)
	dense = gen.LargeRandomDatabase(rand.New(rand.NewSource(seed+1)), c3, 20_000, 400)
	costsep = gen.SkewedSizeDatabase(rand.New(rand.NewSource(seed+2)), gen.CostSeparationQuery(), 8000, 500, 3)
	// Plant complete cycles so the enumeration is non-empty: random tuples
	// alone almost never close the 4-cycle at this density.
	for i := 0; i < 3; i++ {
		w := func(j int) string { return fmt.Sprintf("w%d_%d", i, j) }
		costsep.AddFact("big", w(1), w(2))
		costsep.AddFact("small", w(1), w(2))
		costsep.AddFact("c2", w(2), w(3))
		costsep.AddFact("c3", w(3), w(4))
		costsep.AddFact("c4", w(4), w(1))
	}
	// The star: arm i keeps the hubs divisible by the i-th prime, two
	// seeded leaves per hub, so every semijoin is selective and survivors
	// are the multiples of 210.
	star = hypertree.NewDatabase()
	rng := rand.New(rand.NewSource(seed + 3))
	const hubs = 100_000
	hub := make([]relation.Value, hubs)
	for h := range hub {
		hub[h] = star.Intern(fmt.Sprintf("h%d", h))
	}
	leaf := make([]relation.Value, 1000)
	for i := range leaf {
		leaf[i] = star.Intern(fmt.Sprintf("x%d", i))
	}
	for i, p := range []int{2, 3, 5, 7} {
		r, err := star.AddRelation(fmt.Sprintf("a%d", i+1), 2)
		if err != nil {
			panic(err) // fresh database: names cannot collide
		}
		for h := 0; h < hubs; h += p {
			r.Add(hub[h], leaf[rng.Intn(len(leaf))])
			r.Add(hub[h], leaf[rng.Intn(len(leaf))])
		}
	}
	return cycle, dense, costsep, star
}

// buildExec is the exec-large set-up as a user of the library pays it:
// load the databases, compile each shape once with the library defaults
// plus WithStats and WithWorkers (chain kernel, parallel k-decomp), and
// hash-partition the large cycle database into four shards.
func buildExec(seed int64, procs int) (*execSetup, error) {
	cycle, dense, costsep, star := buildExecDatabases(seed)
	compile := func(q *hypertree.Query, db *hypertree.Database) (*hypertree.Plan, error) {
		return hypertree.Compile(q, hypertree.WithStats(db), hypertree.WithWorkers(procs))
	}
	c3 := gen.Cycle(3)
	cyclePlan, err := compile(c3, cycle)
	if err != nil {
		return nil, err
	}
	densePlan, err := compile(c3, dense)
	if err != nil {
		return nil, err
	}
	costsepPlan, err := compile(gen.CostSeparationQuery(), costsep)
	if err != nil {
		return nil, err
	}
	starPlan, err := compile(hypertree.MustParseQuery(star4Query), star)
	if err != nil {
		return nil, err
	}
	pdb, err := hypertree.PartitionDatabase(cycle, 4, hypertree.HashPartition)
	if err != nil {
		return nil, err
	}
	return &execSetup{
		legs: []*execLeg{
			{name: "cycle3-bool", plan: cyclePlan, db: cycle, boolean: true},
			{name: "dense-cycle3", plan: densePlan, db: dense, boolean: true},
			{name: "costsep-enum", plan: costsepPlan, db: costsep},
			{name: "star4-enum", plan: starPlan, db: star},
			{name: "cycle3-sharded", plan: cyclePlan, db: cycle, pdb: pdb, boolean: true},
		},
		plans: []*hypertree.Plan{cyclePlan, densePlan, costsepPlan, starPlan},
		dbs:   []*hypertree.Database{cycle, dense, costsep, star},
	}, nil
}

// setReferences computes every leg's reference answer through the other
// kernel: a hypertree plan under the leapfrog kernel (the measured plans
// run the chain kernel, or Yannakakis for the acyclic star).
func (s *execSetup) setReferences(procs int) error {
	ctx := context.Background()
	for _, l := range s.legs {
		ref, err := hypertree.Compile(l.plan.Query(),
			hypertree.WithStrategy(hypertree.StrategyHypertree),
			hypertree.WithJoinKernel(hypertree.JoinKernelLeapfrog),
			hypertree.WithStats(l.db),
			hypertree.WithWorkers(procs))
		if err != nil {
			return fmt.Errorf("%s reference: %w", l.name, err)
		}
		if l.boolean {
			l.wantBool, err = ref.ExecuteBoolean(ctx, l.db)
		} else {
			l.wantTable, err = ref.Execute(ctx, l.db)
		}
		if err != nil {
			return fmt.Errorf("%s reference: %w", l.name, err)
		}
	}
	return nil
}

// execRounds runs whole rounds — every leg once, in order — until d has
// elapsed, and returns each round's summed execution time in ms plus each
// leg's wall and process CPU times in ms. Answer checks run between the
// timed calls.
func execRounds(s *execSetup, d time.Duration, rec *recorder, rss *rssSampler, rep *report) (rounds []float64, legMs, legCPU map[string][]float64) {
	legMs, legCPU = map[string][]float64{}, map[string][]float64{}
	start := time.Now()
	for len(rounds) == 0 || time.Since(start) < d {
		req := len(rounds)
		roundOK := true
		var total time.Duration
		for _, l := range s.legs {
			ctx := context.Background()
			var tr *hypertree.Trace
			if rec != nil {
				tr = hypertree.NewTrace()
				ctx = hypertree.ContextWithTrace(ctx, tr)
			}
			c0 := cpuMs()
			t0 := time.Now()
			v, tab, err := l.run(ctx)
			t1 := time.Now()
			legCPU[l.name] = append(legCPU[l.name], cpuMs()-c0)
			total += t1.Sub(t0)
			legMs[l.name] = append(legMs[l.name], float64(t1.Sub(t0).Nanoseconds())/1e6)
			if rec != nil {
				rec.fold(rec.add("op/"+l.name, -1, req, t0, t1), req, tr)
			}
			if err != nil {
				rep.note("%s round %d: %v", l.name, req, err)
				roundOK = false
			} else if !l.matches(v, tab) {
				rep.note("%s round %d: answer differs from the reference", l.name, req)
				rep.wrong++
				roundOK = false
			}
		}
		rep.attempted++
		if !roundOK {
			rep.failed++
		}
		rounds = append(rounds, float64(total.Nanoseconds())/1e6)
		if rss != nil {
			rss.cut()
		}
	}
	return rounds, legMs, legCPU
}

// runExecLarge is the exec-large workload: one caller, closed loop,
// round-robin over the five legs. One operation is one round.
func runExecLarge(cfg runConfig) (*report, error) {
	rep := newReport()
	s, setupS, err := medianSetup(func() (*execSetup, error) { return buildExec(cfg.seed, cfg.procs) }, func(*execSetup) {})
	if err != nil {
		return nil, err
	}
	if err := s.setReferences(cfg.procs); err != nil {
		return nil, err
	}
	if cfg.rec != nil {
		return rep, traceExecLarge(cfg, s, rep)
	}
	// One unmeasured round first (its answers are still checked): the
	// first executions grow the heap to its working size.
	execRounds(s, 0, nil, nil, rep)
	rss := startRSS(0)
	a0 := allocMB()
	rounds, legMs, legCPU := execRounds(s, cfg.seconds, nil, rss, rep)
	allocPerOp := (allocMB() - a0) / float64(len(rounds))
	rep.set("peak_rss_mb", rss.finish())

	// Rounds per CPU second, from each leg's median: the legs run their
	// nodes on every core (WithWorkers), so a core the hypervisor takes
	// away stalls a round's wall time by more than its work, as in
	// compile-stream.
	cpuRound := 0.0
	for _, l := range s.legs {
		cpuRound += median(legCPU[l.name])
	}
	t := tail(rounds, tailBeyond)
	fhw := 0.0
	for _, p := range s.plans {
		fhw += p.FractionalWidth()
	}
	rep.set("setup_s", setupS)
	rep.set("ops_per_s", 1e3/cpuRound)
	rep.set("lat_p50_ms", median(rounds))
	rep.set("lat_tail_ms", t.Value)
	rep.set("alloc_mb_per_op", allocPerOp)
	rep.set("plan_fhw_mean", fhw/float64(len(s.plans)))
	rep.note("exec-large: one op is one round over %d legs; %d rounds %.0f ms; tail %s", len(s.legs), len(rounds), rounds, t)
	for _, l := range s.legs {
		rep.addExtra(l.name+"_p50_ms", median(legMs[l.name]), "ms", "per-leg median")
	}
	return rep, nil
}

// traceExecLarge is the traced exec-large run: half the time untraced,
// half traced (the gap is the tracing overhead), then the layer replays on
// the workload's own databases.
func traceExecLarge(cfg runConfig, s *execSetup, rep *report) error {
	untraced, _, _ := execRounds(s, cfg.seconds/2, nil, nil, rep)
	h0, m0 := hypertree.ColumnarCacheMetrics()
	traced, _, _ := execRounds(s, cfg.seconds/2, cfg.rec, nil, rep)
	h1, m1 := hypertree.ColumnarCacheMetrics()
	rep.set("obs.trace_overhead_share", overheadShare(untraced, traced))
	execLayers(rep, cfg.rec.all(), len(traced))
	if n := (h1 - h0) + (m1 - m0); n > 0 {
		rep.set("hdeval.enc_hit_ratio", float64(h1-h0)/float64(n))
	} else {
		rep.set("hdeval.enc_hit_ratio", 0)
	}
	statsLayer(rep, s.dbs...)
	var parts []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if _, err := hypertree.PartitionDatabase(s.legs[0].db, 4, hypertree.HashPartition); err != nil {
			return err
		}
		parts = append(parts, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	rep.set("shard.partition_ms", median(parts))
	return relationLayer(rep, s.legs[0].db, "r1", "r2")
}
