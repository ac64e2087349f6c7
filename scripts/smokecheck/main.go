// Command smokecheck asserts the serve-smoke acceptance conditions. Two
// independent checks, either or both per invocation:
//
//   - a load.json argument checks the hdload report: every cell served with
//     zero request errors, and the PlanCache hit rate over the burst was
//     above zero (the warm-cache serving path actually amortised compiles).
//     When the report carries a churn section (hdload -churn), the
//     statistics feedback loop is asserted too: at least one refresh
//     landed, the live fingerprint moved, and the post-refresh median
//     q-error dropped back below the stale pre-refresh median;
//   - -metrics URL scrapes a live /admin/metrics endpoint and fails on
//     malformed Prometheus text exposition (bad sample lines, samples
//     without a TYPE header, non-cumulative histogram buckets, malformed
//     exemplar annotations) or on missing required series — the request
//     counters, the statistics-refresh and trace-sampling counters, and the
//     per-stage (compile, execute) latency histograms. -want-exemplars
//     additionally requires at least one histogram bucket to carry an
//     OpenMetrics exemplar annotation (servers run with -trace-sample);
//   - -explain URL fetches BASE/admin/explain for every gen.ServingPool
//     template and fails when a plan cannot be explained or carries a
//     bag marked cross-product (λ edges that share no variables).
//
// Used by scripts/serve_smoke.sh.
//
// Usage: smokecheck [-metrics URL] [-want-exemplars] [-explain BASE] [load.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"regexp"
	"strconv"
	"strings"

	"hypertree/internal/gen"
)

// cell is the slice of an hdload cell report smokecheck asserts on.
type cell struct {
	Phase        string  `json:"phase"`
	Workers      int     `json:"workers"`
	Skew         float64 `json:"skew"`
	Mix          string  `json:"mix"`
	Requests     uint64  `json:"requests"`
	Errors       uint64  `json:"errors"`
	CacheHitRate float64 `json:"cache_hit_rate"`
	Coalesced    uint64  `json:"coalesced"`
}

// churn is the slice of the hdload -churn summary smokecheck asserts on.
type churn struct {
	FactsAdded         int     `json:"facts_added"`
	PreFingerprint     string  `json:"pre_fingerprint"`
	PostFingerprint    string  `json:"post_fingerprint"`
	Refreshes          uint64  `json:"refreshes"`
	RefreshTimedOut    bool    `json:"refresh_timed_out"`
	BaselineMedianQ    float64 `json:"baseline_median_q"`
	PreRefreshMedianQ  float64 `json:"pre_refresh_median_q"`
	PostRefreshMedianQ float64 `json:"post_refresh_median_q"`
}

// report mirrors the hdload JSON envelope.
type report struct {
	Cells []cell `json:"cells"`
	Churn *churn `json:"churn"`
}

func main() {
	metricsURL := flag.String("metrics", "", "scrape this /admin/metrics URL and validate the Prometheus exposition")
	wantExemplars := flag.Bool("want-exemplars", false, "require at least one histogram-bucket exemplar annotation in the scrape")
	explainBase := flag.String("explain", "", "fetch BASE/admin/explain for every serving-pool template and fail on a cross-product bag")
	flag.Parse()
	if *metricsURL == "" && *explainBase == "" && flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: smokecheck [-metrics URL] [-want-exemplars] [-explain BASE] [load.json]")
		os.Exit(2)
	}
	ok := true
	if *metricsURL != "" {
		ok = checkMetrics(*metricsURL, *wantExemplars) && ok
	}
	if *explainBase != "" {
		ok = checkExplain(*explainBase) && ok
	}
	if flag.NArg() == 1 {
		ok = checkLoadReport(flag.Arg(0)) && ok
	}
	if !ok {
		os.Exit(1)
	}
}

// checkExplain asserts that every serving-pool template explains and that
// no served plan joins a bag's λ edges as a cross product.
func checkExplain(base string) bool {
	ok := true
	for _, tpl := range gen.ServingPool() {
		resp, err := http.Get(base + "/admin/explain?query=" + url.QueryEscape(tpl.Src))
		if err != nil {
			fmt.Fprintln(os.Stderr, "smokecheck:", err)
			return false
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch {
		case resp.StatusCode != http.StatusOK:
			fmt.Fprintf(os.Stderr, "smokecheck: explain %s: status %d: %s\n", tpl.Name, resp.StatusCode, body)
			ok = false
		case strings.Contains(string(body), "cross-product"):
			fmt.Fprintf(os.Stderr, "smokecheck: explain %s: plan has a cross-product bag:\n%s", tpl.Name, body)
			ok = false
		default:
			fmt.Printf("smokecheck: explain %s ok — %s\n", tpl.Name, strings.SplitN(string(body), "\n", 2)[0])
		}
	}
	return ok
}

// checkLoadReport asserts the hdload cells — requests served, zero errors,
// warm cache — and, when present, the churn summary of the statistics
// feedback loop.
func checkLoadReport(path string) bool {
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "smokecheck:", err)
		return false
	}
	var r report
	if err := json.Unmarshal(raw, &r); err != nil {
		fmt.Fprintln(os.Stderr, "smokecheck:", err)
		return false
	}
	if len(r.Cells) == 0 {
		fmt.Fprintln(os.Stderr, "smokecheck: no cells in report")
		return false
	}
	ok := true
	for _, c := range r.Cells {
		tag := c.Mix
		if c.Phase != "" {
			tag = c.Phase + "/" + c.Mix
		}
		switch {
		case c.Requests == 0:
			fmt.Fprintf(os.Stderr, "smokecheck: cell mix=%s skew=%g workers=%d served no requests\n", tag, c.Skew, c.Workers)
			ok = false
		case c.Errors > 0:
			fmt.Fprintf(os.Stderr, "smokecheck: cell mix=%s skew=%g workers=%d had %d non-2xx responses\n", tag, c.Skew, c.Workers, c.Errors)
			ok = false
		case c.CacheHitRate <= 0:
			fmt.Fprintf(os.Stderr, "smokecheck: cell mix=%s skew=%g workers=%d had zero PlanCache hit rate\n", tag, c.Skew, c.Workers)
			ok = false
		default:
			fmt.Printf("smokecheck: mix=%s skew=%g workers=%d ok — %d requests, 0 errors, hit rate %.1f%%, %d coalesced\n",
				tag, c.Skew, c.Workers, c.Requests, 100*c.CacheHitRate, c.Coalesced)
		}
	}
	if r.Churn != nil {
		ok = checkChurn(r.Churn) && ok
	}
	return ok
}

// checkChurn asserts the statistics feedback loop closed during an hdload
// -churn run: facts landed, a refresh was installed without a restart, the
// live fingerprint moved, the stale statistics showed an inflated median
// q-error, and the fresh statistics brought the median back down.
func checkChurn(c *churn) bool {
	ok := true
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "smokecheck: churn: "+format+"\n", args...)
		ok = false
	}
	if c.FactsAdded == 0 {
		fail("ingest added no facts")
	}
	if c.RefreshTimedOut || c.Refreshes == 0 {
		fail("no statistics refresh landed (refreshes=%d, timed_out=%v)", c.Refreshes, c.RefreshTimedOut)
	}
	if c.PostFingerprint == "" || c.PostFingerprint == c.PreFingerprint {
		fail("live fingerprint did not move (%q → %q)", c.PreFingerprint, c.PostFingerprint)
	}
	if c.PreRefreshMedianQ <= c.BaselineMedianQ {
		fail("stale median q-error %.1f did not rise above baseline %.1f", c.PreRefreshMedianQ, c.BaselineMedianQ)
	}
	if c.PostRefreshMedianQ >= c.PreRefreshMedianQ {
		fail("post-refresh median q-error %.1f did not drop below stale %.1f", c.PostRefreshMedianQ, c.PreRefreshMedianQ)
	}
	if ok {
		fmt.Printf("smokecheck: churn ok — %d facts, %d refresh(es), fingerprint %s → %s, median q %.1f → %.1f → %.1f\n",
			c.FactsAdded, c.Refreshes, c.PreFingerprint, c.PostFingerprint,
			c.BaselineMedianQ, c.PreRefreshMedianQ, c.PostRefreshMedianQ)
	}
	return ok
}

// promSample matches one exposition sample: name, optional label set, value.
var promSample = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[a-zA-Z_]+="[^"]*"(?:,[a-zA-Z_]+="[^"]*")*\})? (\S+)$`)

// promExemplar matches the OpenMetrics exemplar annotation a histogram
// bucket may carry after its value: `# {trace_id="…"} value timestamp`.
var promExemplar = regexp.MustCompile(`^\{trace_id="[0-9a-f]{32}"\} (\S+) (\S+)$`)

// requiredSeries are the exact samples a healthy post-burst scrape must
// expose (values vary; presence is asserted by prefix match on name+labels).
var requiredSeries = []string{
	"hdserve_requests_total",
	"hdserve_executions_total",
	"hdserve_plan_cache_hits_total",
	"hdserve_plan_cache_misses_total",
	"hdserve_columnar_cache_hits_total",
	"hdserve_columnar_cache_misses_total",
	"hdserve_stats_refresh_total",
	"hdserve_trace_sampled_total",
	"hdserve_trace_sample_every",
	"hdserve_spans_exported_total",
	`hdserve_request_duration_seconds_count{route="/query"}`,
	`hdserve_stage_duration_seconds_count{stage="compile"}`,
	`hdserve_stage_duration_seconds_count{stage="execute"}`,
	`hdserve_stage_duration_seconds_bucket{stage="execute",le="+Inf"}`,
}

// checkMetrics scrapes url and validates the Prometheus text exposition:
// every sample line parses (including bucket exemplar annotations), every
// sample's family has a # TYPE header, histogram buckets are cumulative,
// and the required series are present. With wantExemplars, at least one
// bucket must carry an exemplar.
func checkMetrics(url string, wantExemplars bool) bool {
	resp, err := http.Get(url)
	if err != nil {
		fmt.Fprintln(os.Stderr, "smokecheck:", err)
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fmt.Fprintf(os.Stderr, "smokecheck: %s: status %d\n", url, resp.StatusCode)
		return false
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		fmt.Fprintln(os.Stderr, "smokecheck:", err)
		return false
	}
	body := string(raw)

	ok := true
	typed := map[string]bool{}        // families with a # TYPE header
	lastBucket := map[string]uint64{} // histogram series -> last cumulative value
	samples := map[string]bool{}      // "name{labels}" -> seen
	exemplars := 0
	for n, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) == 4 {
				typed[f[2]] = true
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		// Peel an exemplar annotation off a bucket line before matching the
		// sample itself.
		sample := line
		if at := strings.Index(line, " # "); at >= 0 {
			sample = line[:at]
			ex := line[at+3:]
			m := promExemplar.FindStringSubmatch(ex)
			if m == nil {
				fmt.Fprintf(os.Stderr, "smokecheck: malformed exemplar on line %d: %q\n", n+1, ex)
				ok = false
				continue
			}
			for _, v := range m[1:] {
				if _, err := strconv.ParseFloat(v, 64); err != nil {
					fmt.Fprintf(os.Stderr, "smokecheck: non-numeric exemplar field %q on line %d\n", v, n+1)
					ok = false
				}
			}
			if !strings.Contains(sample, "_bucket") {
				fmt.Fprintf(os.Stderr, "smokecheck: exemplar on non-bucket line %d: %q\n", n+1, line)
				ok = false
			}
			exemplars++
		}
		m := promSample.FindStringSubmatch(sample)
		if m == nil {
			fmt.Fprintf(os.Stderr, "smokecheck: malformed exposition line %d: %q\n", n+1, line)
			ok = false
			continue
		}
		name, labels, value := m[1], m[2], m[3]
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if f, found := strings.CutSuffix(name, suffix); found && typed[f] {
				family = f
			}
		}
		if !typed[family] {
			fmt.Fprintf(os.Stderr, "smokecheck: sample %q has no # TYPE header\n", name)
			ok = false
		}
		if _, err := strconv.ParseFloat(value, 64); err != nil {
			fmt.Fprintf(os.Stderr, "smokecheck: sample %q has non-numeric value %q\n", name, value)
			ok = false
		}
		samples[name+labels] = true
		// Histogram buckets must be cumulative per series (same labels
		// minus `le`; the exposition orders them ascending by bound).
		if strings.HasSuffix(name, "_bucket") {
			series := name + regexp.MustCompile(`,?le="[^"]*"`).ReplaceAllString(labels, "")
			v, err := strconv.ParseUint(value, 10, 64)
			if err != nil {
				fmt.Fprintf(os.Stderr, "smokecheck: bucket %q has non-integer value %q\n", line, value)
				ok = false
				continue
			}
			if prev, seen := lastBucket[series]; seen && v < prev {
				fmt.Fprintf(os.Stderr, "smokecheck: non-cumulative buckets in %q: %d after %d\n", series, v, prev)
				ok = false
			}
			lastBucket[series] = v
		}
	}
	for _, want := range requiredSeries {
		if !samples[want] {
			fmt.Fprintf(os.Stderr, "smokecheck: exposition is missing required series %q\n", want)
			ok = false
		}
	}
	if wantExemplars && exemplars == 0 {
		fmt.Fprintln(os.Stderr, "smokecheck: no histogram-bucket exemplar annotations in the scrape")
		ok = false
	}
	if ok {
		fmt.Printf("smokecheck: %s ok — %d samples, %d histogram series, %d exemplars, all required series present\n",
			url, len(samples), len(lastBucket), exemplars)
	}
	return ok
}
