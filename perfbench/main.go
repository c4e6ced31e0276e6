// Command perfbench is XClean's performance benchmark: it generates
// its inputs from a seed, drives one workload against the program for
// a fixed time, checks every answer against computations made apart
// from the program, and prints the metrics as one JSON line.
//
//	bash perfbench/run.sh --workload engine --seed 1 --seconds 30 --trace 0   (from the repository root)
//
// Workloads: engine (direct library calls), cluster-zipf (a coordinator
// over two mmap-served shards under open-loop Zipf traffic) and
// ingest-live (a catalog-backed server taking live document writes
// while a reader queries it). With --trace 1 the run measures the
// layers from outside and prints the per-layer metrics instead. See
// README.md.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"xclean"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every untraced run prints; perLayer the
// metrics every traced run prints. BENCHMARK.json lists the same
// names (a test keeps them in step).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"heap_mb", "MB"},
	{"query_p50_ms", "ms"},
	{"query_qps", "queries/s"},
	{"mrr", "ratio"},
}

var perLayer = []metricDef{
	{"tokenizer.tokenize_ms", "ms"},
	{"fastss.variants_ms", "ms"},
	{"invindex.scan_ms", "ms"},
	{"core.enumerate_ms", "ms"},
	{"resulttype.typeinfer_ms", "ms"},
	{"lm.accumulate_ms", "ms"},
	{"core.rank_ms", "ms"},
	{"invindex.postings_read", "count"},
	{"core.subtrees", "count"},
	{"core.candidates_seen", "count"},
	{"core.evictions", "count"},
	{"resulttype.computations", "count"},
	{"resulttype.cache_hit_ratio", "ratio"},
	{"fastss.variants_per_keyword", "count"},
	{"core.calls", "count"},
	{"core.call_p50_ms", "ms"},
	{"core.call_p99_ms", "ms"},
	{"server.requests", "count"},
	{"server.self_ms", "ms"},
	{"cache.hits", "count"},
	{"cache.misses", "count"},
	{"cache.hit_ratio", "ratio"},
	{"cache.stale_answers", "count"},
	{"cluster.legs", "count"},
	{"cluster.leg_p50_ms", "ms"},
	{"cluster.leg_p99_ms", "ms"},
	{"cluster.leg_net_ms", "ms"},
	{"cluster.merge_ms", "ms"},
	{"cluster.hedges", "count"},
	{"cluster.partial", "count"},
	{"cluster.batch_p50_ms", "ms"},
	{"cluster.batch_p99_ms", "ms"},
	{"xmltree.parse_s", "s"},
	{"invindex.build_s", "s"},
	{"snapfile.write_s", "s"},
	{"snapfile.open_ms", "ms"},
	{"snapfile.mapped_mb", "MB"},
	{"catalog.build_s", "s"},
	{"catalog.swaps", "count"},
	{"segment.ingest_docs_per_s", "docs/s"},
	{"segment.write_p50_ms", "ms"},
	{"segment.write_p99_ms", "ms"},
	{"segment.compactions", "count"},
	{"segment.segments_max", "count"},
	{"segment.tombstones_max", "count"},
	{"segment.flush_ms", "ms"},
	{"load.query_p99_ms", "ms"},
	{"load.late_p99_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// Config is one run's settings.
type Config struct {
	Seed    int64
	Seconds float64
	Trace   bool
	Sizes   Sizes
	Setups  int    // set-up repetitions (setup_s is their median)
	Dir     string // scratch directory for snapshots and documents
}

// engineOptions are cmd/xserve's defaults: ε=2, β=5, k=10,
// Workers = GOMAXPROCS.
func engineOptions() xclean.Options {
	return xclean.Options{MaxErrors: 2, ErrorPenalty: 5, TopK: 10}
}

const (
	eps       = 2
	topK      = 10
	cacheSize = 1024 // xserve -cache default
)

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the last line of a run's standard output.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`

	values map[string]float64
	check  checker
}

func newResult() *Result { return &Result{values: map[string]float64{}} }

// set records a metric value by name (units come from the tables).
func (r *Result) set(name string, v float64) { r.values[name] = v }

// finish renders the metric table of the mode: every end-to-end metric
// untraced, every per-layer metric traced (0 where the workload does
// not exercise the layer).
func (r *Result) finish(trace bool) {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	r.Metrics = make(map[string]Metric, len(defs))
	for _, d := range defs {
		r.Metrics[d.name] = Metric{Value: r.values[d.name], Unit: d.unit}
	}
	r.Correct = r.check.ok()
}

var workloads = map[string]func(Config) (*Result, error){
	"engine":       runEngine,
	"cluster-zipf": runClusterZipf,
	"ingest-live":  runIngestLive,
}

func main() {
	workload := flag.String("workload", "", "engine, cluster-zipf or ingest-live")
	seed := flag.Int64("seed", 1, "input generation seed")
	seconds := flag.Float64("seconds", 30, "measured run length")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	// Scratch files live in the build directory of the checkout the
	// benchmark runs from, which version control ignores.
	err := os.MkdirAll(".bench_build", 0o755)
	var dir string
	if err == nil {
		dir, err = os.MkdirTemp(".bench_build", "run-")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg := Config{Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Sizes: fullSizes, Setups: 5, Dir: dir}
	fp := fingerprint(*workload, *seed)
	line, _ := json.Marshal(map[string]any{"fingerprint": fp})
	fmt.Println(string(line))
	fmt.Fprintln(os.Stderr, string(line))

	res, err := run(cfg)
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	for _, msg := range res.check.first {
		fmt.Fprintln(os.Stderr, "check failed:", msg)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d answers checked, %d check failures\n",
		*workload, res.check.checked, res.check.failures)
	res.finish(cfg.Trace)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// fingerprint identifies the machine and code a run measured, so runs
// from different machines or commits are never compared unknowingly.
func fingerprint(workload string, seed int64) map[string]any {
	return map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
		"commit":     sourceDigest("."),
		"workload":   workload,
		"seed":       seed,
		"time":       time.Now().UTC().Format(time.RFC3339),
	}
}

// cpuModel reads the CPU model name ("unknown" off Linux).
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest identifies the code under test: a SHA-256 over the
// module's Go sources and go.mod files (the checkout the benchmark runs
// in need not be a git repository, so a commit hash is not always
// available).
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		rel, _ := filepath.Rel(root, f)
		io.WriteString(h, filepath.ToSlash(rel)+"\n")
		if b, err := os.ReadFile(f); err == nil {
			h.Write(b)
		}
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
