package main

import (
	"sort"
	"strings"
	"sync"
	"time"

	"hypertree"
)

// span is one timed interval of the traced run: either a call the
// benchmark made into a layer, or a span the program recorded itself and
// the benchmark folded in beneath the call that produced it. Start and End
// are offsets from the recorder's creation; Req groups the spans of one
// operation (an HTTP request, one Execute, one compile).
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // -1 for a root
	Req    int           `json:"req"`
	Name   string        `json:"name"`
	Kernel string        `json:"kernel,omitempty"`
	Label  string        `json:"label,omitempty"`
	Node   int           `json:"node"`
	Rows   int64         `json:"rows"`
	Steps  int64         `json:"steps,omitempty"`
	QError float64       `json:"q_error,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps the traced run's spans in memory until the run ends. A nil
// recorder records nothing, so untraced runs call it unconditionally at the
// cost of a pointer test.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// add records a span over [start, end] and returns its ID (-1 on a nil
// recorder).
func (r *recorder) add(name string, parent, req int, start, end time.Time) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name, Node: -1, Rows: -1,
		Start: start.Sub(r.t0), End: end.Sub(r.t0)})
	return id
}

// fold adds the program's own spans from tr beneath the benchmark span
// parent. The program's spans carry no parent link, so one is inferred: a
// span's parent is the innermost folded span that contains its interval
// and whose name is a stage ancestor of its own ("exec" of "exec/node",
// "exec/node/sharded" of its per-shard work); spans with no such ancestor
// hang directly under parent. Containment alone would be wrong, because
// sibling spans overlap — race entrants run concurrently, and so do node
// materialisations under WithWorkers.
func (r *recorder) fold(parent, req int, tr *hypertree.Trace) {
	if r == nil || tr == nil {
		return
	}
	base := tr.StartTime().Sub(r.t0)
	in := tr.Spans()
	sort.SliceStable(in, func(i, j int) bool {
		if in[i].StartMicros != in[j].StartMicros {
			return in[i].StartMicros < in[j].StartMicros
		}
		return in[i].Micros > in[j].Micros
	})
	r.mu.Lock()
	defer r.mu.Unlock()
	first := len(r.spans)
	for _, ps := range in {
		start := base + time.Duration(ps.StartMicros)*time.Microsecond
		s := span{ID: len(r.spans), Parent: parent, Req: req, Name: ps.Name, Kernel: ps.Kernel,
			Label: ps.Label, Node: ps.Node, Rows: ps.Rows, Steps: ps.Steps,
			Start: start, End: start + time.Duration(ps.Micros)*time.Microsecond}
		if ps.EstRows > 0 && ps.Rows >= 0 {
			s.QError = hypertree.QError(ps.EstRows, ps.Rows)
		}
		for i := len(r.spans) - 1; i >= first; i-- {
			p := r.spans[i]
			if stageAncestor(p.Name, s.Name) && p.Start <= s.Start && s.End <= p.End+time.Microsecond {
				s.Parent = p.ID
				break
			}
		}
		r.spans = append(r.spans, s)
	}
}

// stageAncestor reports whether stage a encloses stage b in the program's
// span taxonomy ("a/b" is a sub-stage of "a").
func stageAncestor(a, b string) bool {
	if a == "exec/node/sharded" {
		return b == "exec/node/shard" || b == "exec/node/merge"
	}
	return strings.HasPrefix(b, a+"/")
}

// all returns a copy of the recorded spans.
func (r *recorder) all() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns each span's self time, indexed by span ID: its
// duration minus the union of its children's intervals clipped to its own.
// Children may overlap each other (parallel node materialisation, race
// entrants), so the union is taken, never the sum — a parent whose two
// children ran side by side for its whole duration has zero self time,
// not a negative one.
func selfTimes(spans []span) []time.Duration {
	children := make([][]span, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.dur() - coveredBy(s.Start, s.End, children[i])
	}
	return out
}

// coveredBy returns how much of [lo, hi] the union of the spans' intervals
// covers.
func coveredBy(lo, hi time.Duration, spans []span) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a <= cur.b:
			cur.b = max(cur.b, v.b)
		default:
			total += cur.b - cur.a
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b - cur.a
	}
	return total
}

// layerOf maps a span name to the module (layer) it measures: benchmark
// spans are named "<layer>/<call>", and the program's own stage names map
// onto the packages that record them.
func layerOf(name string) string {
	switch {
	case name == "compile":
		return "plan"
	case name == "compile/race":
		return "race"
	case name == "compile/decompose":
		return "decomp"
	case name == "exec":
		return "plan"
	case strings.HasPrefix(name, "exec/node/"):
		return "shard"
	case name == "exec/node":
		return "hdeval"
	case strings.HasPrefix(name, "exec/semijoin"), name == "exec/enumerate":
		return "yannakakis"
	}
	if i := strings.IndexByte(name, '/'); i > 0 {
		return name[:i]
	}
	return name
}

// selfByLayer sums self time per layer over spans.
func selfByLayer(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := map[string]time.Duration{}
	for i, s := range spans {
		out[layerOf(s.Name)] += self[i]
	}
	return out
}
