package main

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"time"

	"hypertree"
	"hypertree/internal/relation"
)

// execLayers fills the hdeval, yannakakis and shard metrics from the
// program spans folded into spans: times as per-operation means over ops
// operations, node rows and q-error as the worst seen.
func execLayers(rep *report, spans []span, ops int) {
	if ops == 0 {
		return
	}
	per := func(d time.Duration) float64 { return float64(d) / 1e6 / float64(ops) }
	var chain, leapfrog, up, down, enum, sharded time.Duration
	var maxRows int64
	var fallbacks, merges, semijoins int64
	qerrs := map[string][]float64{}
	for _, s := range spans {
		switch s.Name {
		case "exec/node", "exec/node/sharded":
			if s.Name == "exec/node/sharded" {
				sharded += s.dur()
			}
			switch {
			case strings.HasPrefix(s.Kernel, "leapfrog"):
				leapfrog += s.dur()
			case s.Kernel != "":
				chain += s.dur()
			}
			if strings.Contains(s.Kernel, "fallback") {
				fallbacks++
			}
			maxRows = max(maxRows, s.Rows)
			if s.QError > 0 {
				key := fmt.Sprintf("%d %s", s.Node, s.Label)
				qerrs[key] = append(qerrs[key], s.QError)
			}
		case "exec/semijoin/up", "exec/semijoin/down":
			if s.Name == "exec/semijoin/up" {
				up += s.dur()
			} else {
				down += s.dur()
			}
			semijoins += s.Steps
			if n, ok := strings.CutPrefix(s.Label, "merge="); ok {
				if m, err := strconv.ParseInt(n, 10, 64); err == nil {
					merges += m
				}
			}
		case "exec/enumerate":
			enum += s.dur()
		}
	}
	rep.set("hdeval.node_ms.chain", per(chain))
	rep.set("hdeval.node_ms.leapfrog", per(leapfrog))
	rep.set("hdeval.node_rows", float64(maxRows))
	rep.set("hdeval.qerror_p50", worstNodeMedian(qerrs))
	rep.set("hdeval.lf_fallbacks", float64(fallbacks))
	rep.set("yannakakis.up_ms", per(up))
	rep.set("yannakakis.down_ms", per(down))
	rep.set("yannakakis.enum_ms", per(enum))
	if semijoins > 0 {
		rep.set("yannakakis.merge_share", float64(merges)/float64(semijoins))
	}
	if sharded > 0 {
		rep.set("shard.node_ms", per(sharded))
	}
}

// worstNodeMedian returns the largest per-node median q-error: the node
// whose estimates are typically furthest off, which is what the serving
// layer's hdserve_node_qerror_median gauge reports too.
func worstNodeMedian(byNode map[string][]float64) float64 {
	worst := 0.0
	for _, qs := range byNode {
		worst = max(worst, median(qs))
	}
	return worst
}

// relationLayer replays the relation package's public operators on two
// relations of the workload's own database, joined on one shared column
// (a(X, Y) ⋈ b(Y, Z)), and reports each operator's cost per input row. The
// timings are the median of three repetitions.
func relationLayer(rep *report, db *hypertree.Database, a, b string) error {
	ra, rb := db.Relation(a), db.Relation(b)
	if ra == nil || rb == nil || ra.Arity != 2 || rb.Arity != 2 {
		return fmt.Errorf("relation replay needs binary relations %s and %s", a, b)
	}
	ta, err := relation.Bind(ra, []relation.Arg{relation.BindVar(0), relation.BindVar(1)})
	if err != nil {
		return err
	}
	tb, err := relation.Bind(rb, []relation.Arg{relation.BindVar(1), relation.BindVar(2)})
	if err != nil {
		return err
	}
	in := float64(ta.Rows() + tb.Rows())
	perRow := func(rows float64, f func()) float64 {
		var ts []float64
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			f()
			ts = append(ts, float64(time.Since(t0).Nanoseconds()))
		}
		return median(ts) / max(rows, 1)
	}
	var joined *relation.Table
	rep.set("relation.join_ns_per_row", perRow(in, func() { joined = ta.Join(tb) }))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ta.Join(tb)
	runtime.ReadMemStats(&after)
	rep.set("relation.join_allocs_per_row", float64(after.Mallocs-before.Mallocs)/max(in, 1))
	rep.set("relation.semijoin_ns_per_row", perRow(in, func() { ta.Semijoin(tb) }))
	rep.set("relation.project_ns_per_row", perRow(float64(joined.Rows()), func() { joined.Project([]int{0, 2}) }))
	var ca, cb *relation.Columnar
	rep.set("relation.columnar_ns_per_row", perRow(in, func() {
		ca = relation.NewColumnar(ta, []int{1, 0})
		cb = relation.NewColumnar(tb, []int{1, 2})
	}))
	rep.set("relation.leapfrog_ns_per_row", perRow(in, func() {
		relation.LeapfrogJoinColumnar([]*relation.Columnar{ca, cb}, []int{1, 0, 2}, 3, 0)
	}))
	rep.set("relation.merge_semijoin_ns_per_row", perRow(in, func() { relation.MergeSemijoin(ca, cb) }))
	var clones []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		db.Clone()
		clones = append(clones, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	rep.set("relation.clone_ms", median(clones))
	return nil
}

// statsLayer times the sampled statistics collection WithStats and the
// serving layer run on each database, summed, median of three.
func statsLayer(rep *report, dbs ...*hypertree.Database) {
	var ts []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		for _, db := range dbs {
			hypertree.CollectStatsSampled(db, 0)
		}
		ts = append(ts, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	rep.set("stats.collect_ms", median(ts))
}

// cqLayer times parsing and canonicalising the given query texts,
// reporting the median per query in microseconds.
func cqLayer(rep *report, srcs []string) error {
	var parse, canon []float64
	for _, src := range srcs {
		t0 := time.Now()
		q, err := hypertree.ParseQuery(src)
		t1 := time.Now()
		if err != nil {
			return err
		}
		hypertree.CanonicalForm(q)
		t2 := time.Now()
		parse = append(parse, float64(t1.Sub(t0).Nanoseconds())/1e3)
		canon = append(canon, float64(t2.Sub(t1).Nanoseconds())/1e3)
	}
	rep.set("cq.parse_us", median(parse))
	rep.set("cq.canon_us", median(canon))
	return nil
}

// overheadShare is the traced run's extra cost over the untraced one:
// traced/untraced − 1 on the mean operation time.
func overheadShare(untraced, traced []float64) float64 {
	u, t := mean(untraced), mean(traced)
	if u == 0 {
		return 0
	}
	return t/u - 1
}
