package hypertree

import (
	"fmt"

	"hypertree/internal/stats"
)

// Stats is a statistics snapshot of a database — per-relation cardinalities
// and per-column distinct counts — used by cost-based planning: see
// WithStats, WithCostModel and Plan.Explain. Collect one with CollectStats
// or CollectStatsSampled.
type Stats = stats.Stats

// CollectStats scans every relation of db fully and returns exact
// statistics. On large databases prefer CollectStatsSampled.
func CollectStats(db *Database) *Stats { return stats.Collect(db) }

// CollectStatsSampled collects statistics from a bounded scan: tuple counts
// are exact, distinct counts are estimated from the first sample rows of
// each relation (sample ≤ 0 selects stats.DefaultSampleRows). This is the
// collection WithStats performs — cheap enough to run inline at compile
// time on multi-million-tuple databases.
func CollectStatsSampled(db *Database, sample int) *Stats {
	return stats.CollectSampled(db, sample)
}

// A StatsRefresher closes the observe→detect→refresh→re-plan loop: it
// re-collects statistics and installs the fresh snapshot through a caller
// callback (typically an atomic pointer swap in a serving daemon), on a
// timer and/or when the QErrorReport feedback shows some node's median
// q-error over its last-N executions under the live fingerprint exceeding a
// threshold. Because PlanCache keys embed the statistics fingerprint, an
// installed snapshot re-ranks every query on its next compile with no cache
// invalidation and no restart. Create with NewStatsRefresher.
type StatsRefresher = stats.Refresher

// StatsRefresherConfig configures a StatsRefresher: the Collect/Install
// callbacks (required) plus the timer interval, q-error trigger threshold,
// window and cooldown (all defaulted).
type StatsRefresherConfig = stats.RefresherConfig

// NewStatsRefresher returns a StatsRefresher over cfg; it panics when the
// Collect or Install callback is missing.
func NewStatsRefresher(cfg StatsRefresherConfig) *StatsRefresher {
	return stats.NewRefresher(cfg)
}

// DefaultQErrorWindow is the default consecutive-execution window a
// StatsRefresher's q-error trigger takes node medians over.
const DefaultQErrorWindow = stats.DefaultQErrorWindow

// WithStats makes compilation cost-based against db: a sampled statistics
// snapshot is collected (CollectStatsSampled with the default bound) and
// threaded through the whole planning pipeline — the heuristic engines
// break width ties toward cheaper λ placements, the WithAutoStrategy race
// breaks fractional-width ties by estimated total cost (per node the
// smaller of the AGM bound Π_{R∈λ} |R|^w and the System-R estimate of the
// λ-join), the evaluator orders each node's λ-join connected-first by
// ascending estimated cardinality and the semijoin passes by ascending
// estimated node size, and Plan.Explain reports the per-node estimates.
// Statistics never change answers — only which same-width plan wins and in
// which order it joins; the equivalence is property-tested across every
// engine and the sharded path. The snapshot is
// taken at compile time: a plan stays correct when the database drifts, but
// recompile (plans compiled under different statistics are cached
// separately, keyed by the snapshot's fingerprint) to re-rank. Use
// WithCostModel to supply a precollected or hand-built snapshot instead;
// when both options are given, WithCostModel wins.
func WithStats(db *Database) CompileOption {
	return func(c *compileConfig) {
		if db == nil {
			if c.err == nil {
				c.err = fmt.Errorf("hypertree: WithStats on a nil database")
			}
			return
		}
		c.statsDB = db
	}
}

// WithCostModel supplies an explicit statistics snapshot for cost-based
// planning — the same effect as WithStats, with the collection under the
// caller's control: collect exactly (CollectStats), collect once and reuse
// across many compilations, or price plans against a database the process
// never loads. A nil snapshot is rejected; to compile without a cost model,
// omit the option. Takes precedence over WithStats when both are given.
func WithCostModel(s *Stats) CompileOption {
	return func(c *compileConfig) {
		if s == nil {
			if c.err == nil {
				c.err = fmt.Errorf("hypertree: WithCostModel on a nil statistics snapshot")
			}
			return
		}
		c.stats = s
	}
}

// EdgeStats is the per-hyperedge statistics value cost-based planning
// threads through every layer: per-edge row estimates, the variables each
// edge binds and their distinct counts, indexed by hypergraph edge id.
// Compile derives it once from the WithStats/WithCostModel snapshot and
// hands it to the decomposers in DecomposeRequest.Stats.
type EdgeStats = stats.EdgeStats

// EstimateCost prices a decomposition of q's hypergraph against a
// statistics snapshot: the sum over nodes of min(AGM bound Π_{R∈λ} |R|^w,
// System-R estimate of the λ-join), the same estimate cost-based
// compilation minimises among plans of equal fractional width (without the
// χ distinct-count cap Plan.EstimatedCost additionally applies to its own
// nodes). It lets experiments and tools compare plans compiled under
// different rankings on one scale — e.g. how much cheaper the WithStats
// winner is than the width-only winner.
func EstimateCost(q *Query, d *Decomposition, s *Stats) float64 {
	if d == nil || s == nil {
		return 0
	}
	h, edgeToAtom := q.Hypergraph()
	return d.CostWith(edgeStatsFor(q, h, edgeToAtom, s))
}

// edgeStatsFor extracts, once per compile, the EdgeStats every planning
// layer prices bags with: per hypergraph edge the cardinality of the
// relation backing its atom, the variables it binds, and for each variable
// the smallest distinct-value count across the columns carrying it
// (repeated variables act as an equality selection, so the minimum is the
// sound survivor count). Columns the snapshot has never seen get 0, which
// the consumers read as "unknown". edgeToAtom is the mapping returned by
// Query.Hypergraph.
func edgeStatsFor(q *Query, h *Hypergraph, edgeToAtom []int, s *Stats) *EdgeStats {
	es := &EdgeStats{
		Rows:     make([]float64, len(edgeToAtom)),
		Vars:     make([][]int, len(edgeToAtom)),
		Distinct: make([][]float64, len(edgeToAtom)),
	}
	for e, ai := range edgeToAtom {
		atom := q.Atoms[ai]
		es.Rows[e] = float64(s.Rows(atom.Pred))
		vars := h.Edge(e).Elems()
		dist := make([]float64, len(vars))
		for col, t := range atom.Args {
			if !t.IsVar {
				continue
			}
			vi, found := q.VarIndex(t.Name)
			if !found {
				continue
			}
			c := float64(s.Distinct(atom.Pred, col))
			for i, v := range vars {
				if v == vi && c > 0 && (dist[i] == 0 || c < dist[i]) {
					dist[i] = c
				}
			}
		}
		es.Vars[e], es.Distinct[e] = vars, dist
	}
	return es
}
