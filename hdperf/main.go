// Command hdperf is the repository's performance benchmark. One command
// runs one of three seeded workloads, checks every answer it gets, and
// prints each end-to-end metric by name with its unit; the last line of
// standard output is a JSON summary. With -trace 1 it runs the same
// workload traced instead and prints the per-layer breakdown.
//
//	serve-mix       open-loop HTTP against an in-process hdserve server
//	exec-large      Plan.Execute on large databases, closed loop
//	compile-stream  PlanCache compiles of distinct shapes, closed loop
//
// Run it from the repository root through hdperf/run.sh, which builds it;
// see hdperf/NOTES.md for what each metric means.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics every untraced run reports, whatever the
// workload (BENCHMARK.json's end_to_end list).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"lat_p50_ms", "ms"},
	{"lat_tail_ms", "ms"},
	{"alloc_mb_per_op", "MB"},
	{"peak_rss_mb", "MB"},
	{"plan_fhw_mean", "fhw"},
}

// perLayer lists the metrics every traced run reports (BENCHMARK.json's
// per_layer list). A layer the workload bypasses reports 0.
var perLayer = []metricDef{
	{"serve.overhead_ms", "ms"},
	{"serve.coalesced_share", "share"},
	{"serve.rejected", "count"},
	{"plancache.hit_ratio", "share"},
	{"plancache.lookup_us", "us"},
	{"plancache.evictions", "count"},
	{"cq.parse_us", "us"},
	{"cq.canon_us", "us"},
	{"decomp.ms", "ms"},
	{"decomp.budget_exhausted_share", "share"},
	{"ghd.ms", "ms"},
	{"fhd.ms", "ms"},
	{"race.ms", "ms"},
	{"race.win_share.k-decomp", "share"},
	{"race.win_share.ghd", "share"},
	{"race.win_share.fhd", "share"},
	{"stats.collect_ms", "ms"},
	{"hdeval.node_ms.chain", "ms"},
	{"hdeval.node_ms.leapfrog", "ms"},
	{"hdeval.node_rows", "rows"},
	{"hdeval.qerror_p50", "ratio"},
	{"hdeval.enc_hit_ratio", "share"},
	{"hdeval.lf_fallbacks", "count"},
	{"yannakakis.up_ms", "ms"},
	{"yannakakis.down_ms", "ms"},
	{"yannakakis.enum_ms", "ms"},
	{"yannakakis.merge_share", "share"},
	{"relation.join_ns_per_row", "ns"},
	{"relation.semijoin_ns_per_row", "ns"},
	{"relation.project_ns_per_row", "ns"},
	{"relation.columnar_ns_per_row", "ns"},
	{"relation.leapfrog_ns_per_row", "ns"},
	{"relation.merge_semijoin_ns_per_row", "ns"},
	{"relation.join_allocs_per_row", "count"},
	{"relation.clone_ms", "ms"},
	{"shard.partition_ms", "ms"},
	{"shard.node_ms", "ms"},
	{"obs.trace_overhead_share", "share"},
	{"obs.unattributed_share", "share"},
}

// spanDir is where traced runs write their spans, relative to the
// repository root the benchmark runs from.
const spanDir = ".bench_build/hdperf-runs"

// setupReps is how many times each workload builds its set-up; setup_s is
// the median, so one slow build (a GC cycle, a page-cache miss) does not
// move it.
const setupReps = 3

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds time.Duration
	rec     *recorder // nil on untraced runs
	procs   int       // GOMAXPROCS
}

// report is what a workload hands back: the operation counts, its values
// for the common metrics (end-to-end, or per-layer on a traced run), and
// any workload-specific metrics, printed by name but not part of the JSON
// summary because the other workloads have no value for them.
type report struct {
	attempted int
	failed    int // errors, refusals, timeouts and wrong answers
	wrong     int // the subset of failed whose answer was checked and wrong
	values    map[string]float64
	extra     []extraMetric
	notes     []string
}

type extraMetric struct {
	name  string
	value float64
	unit  string
	note  string
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) addExtra(name string, v float64, unit, note string) {
	r.extra = append(r.extra, extraMetric{name, v, unit, note})
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(runConfig) (*report, error){
	"serve-mix":      runServeMix,
	"exec-large":     runExecLarge,
	"compile-stream": runCompileStream,
}

func main() {
	workload := flag.String("workload", "", "serve-mix, exec-large or compile-stream")
	seed := flag.Int64("seed", 1, "seed every generated input derives from")
	seconds := flag.Float64("seconds", 20, "measured time per run")
	trace := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: hdperf -workload serve-mix|exec-large|compile-stream -seed N -seconds S -trace 0|1\n")
		os.Exit(2)
	}
	cfg := runConfig{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		procs:   runtime.GOMAXPROCS(0),
	}
	if *trace == 1 {
		cfg.rec = newRecorder()
	}
	st := stamp(".", *workload, *seed, *trace)
	stampLine, _ := json.Marshal(st)
	fmt.Printf("# stamp %s\n", stampLine)

	steal0, total0 := cpuTicks()
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hdperf %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if steal1, total1 := cpuTicks(); total1 > total0 {
		rep.note("machine: %.1f%% of CPU time stolen by the hypervisor during the run", 100*float64(steal1-steal0)/float64(total1-total0))
	}
	defs := endToEnd
	if cfg.rec != nil {
		defs = perLayer
		rep.set("obs.unattributed_share", unattributedShare(cfg.rec.all()))
		if err := writeSpans(spanDir, *workload, *seed, st, cfg.rec); err != nil {
			fmt.Fprintf(os.Stderr, "hdperf: writing spans: %v\n", err)
			os.Exit(1)
		}
		printSelfTimes(cfg.rec.all())
	}
	for _, n := range rep.notes {
		fmt.Printf("# %s\n", n)
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]jsonMetric{}
	for _, d := range defs {
		v, measured := rep.values[d.name]
		suffix := ""
		if !measured {
			suffix = "  (layer bypassed by this workload)"
		}
		fmt.Printf("metric %-36s %14.6g %s%s\n", d.name, v, d.unit, suffix)
		metrics[d.name] = jsonMetric{v, d.unit}
	}
	if cfg.rec == nil {
		fmt.Printf("metric %-36s %14.6g %s\n", "fail_share", float64(rep.failed)/float64(max(rep.attempted, 1)), "share")
	}
	for _, e := range rep.extra {
		fmt.Printf("metric %-36s %14.6g %s  %s\n", e.name, e.value, e.unit, e.note)
	}
	summary, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{rep.wrong == 0 && rep.attempted > 0, max(rep.attempted, 1), rep.failed, metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "hdperf: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(summary))
}

// runStamp identifies what produced a result: the code, the toolchain and
// the machine, plus the inputs' seed.
type runStamp struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      int    `json:"trace"`
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Time       string `json:"time"`
}

func stamp(root, workload string, seed int64, trace int) runStamp {
	return runStamp{
		Workload:   workload,
		Seed:       seed,
		Trace:      trace,
		Commit:     gitCommit(root),
		SourceHash: sourceHash(root),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
}

// gitCommit reads HEAD from root/.git without running git; "unknown" when
// the tree is not a git checkout (the source hash still identifies it).
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}

// sourceHash digests every Go source and module file under root (build
// output and VCS metadata excluded), so runs of identical code carry
// identical stamps even where no commit ID is available.
func sourceHash(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// rssSampler tracks the process's resident set size, read from
// /proc/self/status every 10ms, as one peak per measurement window.
// peak_rss_mb is the median of the window peaks: the peak a typical
// operation drives the process to, which a single GC cycle landing late
// in one window cannot move the way it moves the all-time high-water mark.
type rssSampler struct {
	mu    sync.Mutex
	cur   float64
	peaks []float64
	stop  chan struct{}
	done  chan struct{}
}

// startRSS starts sampling; with every > 0 it also closes a window on
// that period, otherwise the workload closes windows with cut.
func startRSS(every time.Duration) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		lastCut := time.Now()
		for {
			select {
			case <-s.stop:
				return
			case now := <-tick.C:
				v := rssMB()
				s.mu.Lock()
				s.cur = max(s.cur, v)
				s.mu.Unlock()
				if every > 0 && now.Sub(lastCut) >= every {
					s.cut()
					lastCut = now
				}
			}
		}
	}()
	return s
}

// cut closes the current window.
func (s *rssSampler) cut() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cur > 0 {
		s.peaks = append(s.peaks, s.cur)
	}
	s.cur = 0
}

// finish stops the sampler and returns the median window peak in MB.
func (s *rssSampler) finish() float64 {
	close(s.stop)
	<-s.done
	s.cut()
	return median(s.peaks)
}

// rssMB returns the current resident set size in MB, or the Go runtime's
// total obtained memory where /proc is unavailable.
func rssMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmRSS:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// cpuMs returns the CPU time this process has used so far, all threads,
// in ms. Time the hypervisor stole from the VM is not in it.
func cpuMs() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e6
}

// cpuTicks returns the machine's cumulative steal and total CPU ticks
// from /proc/stat (zeros where it is unavailable). Steal is time the
// hypervisor gave this VM's CPUs to someone else: on a shared host it is
// what makes one run slower than the next with nothing else changed.
func cpuTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user..steal; guest time is already counted in user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// allocMB returns the cumulative bytes the Go heap has allocated, in MB.
func allocMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}

// medianSetup builds the workload's set-up setupReps times and returns the
// last one with the median build time in seconds; close releases every
// build but the one kept.
func medianSetup[T any](build func() (T, error), close func(T)) (T, float64, error) {
	var kept T
	var times []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			close(kept)
			runtime.GC()
		}
		t0 := time.Now()
		v, err := build()
		if err != nil {
			return kept, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		kept = v
	}
	return kept, median(times), nil
}

// unattributedShare is the share of the benchmark's top-level operation
// spans that no child span accounts for.
func unattributedShare(spans []span) float64 {
	self := selfTimes(spans)
	var total, free time.Duration
	for i, s := range spans {
		if s.Parent == -1 {
			total += s.dur()
			free += self[i]
		}
	}
	if total == 0 {
		return 0
	}
	return float64(free) / float64(total)
}

// printSelfTimes prints the traced run's self time per layer.
func printSelfTimes(spans []span) {
	by := selfByLayer(spans)
	var total time.Duration
	names := make([]string, 0, len(by))
	for n, d := range by {
		names = append(names, n)
		total += d
	}
	sort.Slice(names, func(i, j int) bool { return by[names[i]] > by[names[j]] })
	fmt.Printf("# self time by layer (%d spans, %.3fs total)\n", len(spans), total.Seconds())
	for _, n := range names {
		fmt.Printf("#   %-12s %10.3f ms  %5.1f%%\n", n, float64(by[n])/1e6, 100*float64(by[n])/float64(max(total, 1)))
	}
}

func writeSpans(dir, workload string, seed int64, st runStamp, rec *recorder) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-spans.json", workload, seed))
	b, err := json.Marshal(struct {
		Stamp runStamp `json:"stamp"`
		Spans []span   `json:"spans"`
	}{st, rec.all()})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Printf("# spans written to %s\n", path)
	return nil
}
