// Command perfbench is the repository's end-to-end benchmark. One run
// generates a workload from its seed, drives the program through its
// public entry points for the given number of seconds, checks the
// outputs, and prints one JSON result as its last line: the end-to-end
// metrics, or with --trace 1 the per-layer breakdown. See README.md.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// endToEnd lists the metrics an untraced run reports, with units.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"docs_per_s", "docs/s"},
	{"ack_p50_ms", "ms"},
	{"ack_tail_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"precision", "ratio"},
	{"recall", "ratio"},
	{"ari", "ratio"},
	{"ok_rate", "ratio"},
}

// perLayer lists the metrics a traced run reports. A workload that
// bypasses a layer reports its metrics as 0.
var perLayer = []metricDef{
	{"tokenize.busy_ms", "ms"},
	{"core.coarse.busy_ms", "ms"},
	{"core.coarse.clusters", "count"},
	{"core.coarse.docs", "count"},
	{"core.fine.busy_ms", "ms"},
	{"core.fine.templates", "count"},
	{"core.fine.yield", "ratio"},
	{"net.self_ms_per_req", "ms"},
	{"serve.handler_p50_ms", "ms"},
	{"serve.handler_p99_ms", "ms"},
	{"serve.read_handler_p99_ms", "ms"},
	{"serve.batch_docs", "docs"},
	{"serve.commits", "count"},
	{"stream.match_us_per_doc", "us"},
	{"stream.flushes", "count"},
	{"stream.flush_p50_ms", "ms"},
	{"stream.flush_p99_ms", "ms"},
	{"stream.flush.busy_ms", "ms"},
	{"stream.templates_live", "count"},
	{"stream.cand_per_probe", "count"},
	{"stream.dp_skip_rate", "ratio"},
	{"stream.mine_reuse_rate", "ratio"},
	{"stream.lifecycle.evicted", "count"},
	{"stream.lifecycle.merged", "count"},
	{"stream.lifecycle.aged", "count"},
	{"serve.wal.syncs", "count"},
	{"serve.wal.records_per_sync", "count"},
	{"serve.wal.bytes_per_doc", "bytes"},
	{"serve.shard.load_max_over_mean", "ratio"},
	{"serve.shard.colocation", "ratio"},
	{"serve.snapshot_ms", "ms"},
	{"serve.snapshot_bytes", "bytes"},
	{"serve.replayed_docs", "count"},
	{"serve.recovery.lost_ids", "count"},
	{"unattributed_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

type metricDef struct{ name, unit string }

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds float64
	workers int    // nproc: Detect workers and server GOMAXPROCS
	dir     string // scratch directory, removed after the run
}

// report is one workload execution's outcome.
type report struct {
	attempted, failed int
	e2e               map[string]float64
	layer             map[string]float64
	// fingerprint holds the values that must repeat exactly for a seed:
	// quality, counts, verdict digests.
	fingerprint map[string]float64
	problems    []string
	lines       []string
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}, fingerprint: map[string]float64{}}
}

// check records a failed correctness check.
func (r *report) check(ok bool, format string, args ...any) bool {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
	return ok
}

func (r *report) printf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// phase prints one phase's sent/succeeded/failed counts and adds them
// to the run's totals.
func (r *report) phase(name string, sent, failed int) {
	r.attempted += sent
	r.failed += failed
	r.printf("phase %-14s sent %7d  succeeded %7d  failed %d", name, sent, sent-failed, failed)
}

// workload runs once; tr is nil for the untraced run.
type workload func(cfg runConfig, tr *Tracer) (*report, error)

var workloads = map[string]workload{
	"batch-ht":      runBatchHT,
	"serve-twitter": runServeTwitter,
	"ingest-drift":  runIngestDrift,
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "batch-ht, serve-twitter or ingest-drift")
	seed := fs.Int64("seed", 1, "workload seed: the same seed generates the same inputs")
	seconds := fs.Float64("seconds", 10, "length of the measured phase")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer breakdown instead of end-to-end metrics")
	dir := fs.String("dir", filepath.Join(".bench_build", "perfbench"), "directory for scratch state, trace export and the per-seed expectations")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || fs.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload %s --seed N --seconds S --trace 0|1\n", strings.Join(sortedKeys(workloads), "|"))
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	scratch, err := os.MkdirTemp(*dir, *name+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)
	cfg := runConfig{seed: *seed, seconds: *seconds, workers: runtime.NumCPU()}
	fmt.Printf("perfbench %s seed=%d seconds=%g trace=%d GOMAXPROCS=%d\n", *name, *seed, *seconds, *trace, cfg.workers)

	// Each execution gets a fresh directory: state and logs from the
	// untraced execution must not leak into the traced one.
	exec := func(tr *Tracer) (*report, error) {
		c := cfg
		var err error
		if c.dir, err = os.MkdirTemp(scratch, "run-"); err != nil {
			return nil, err
		}
		return wl(c, tr)
	}
	rep, err := exec(nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	out := rep
	metrics := map[string]metricJSON{}
	if *trace == 1 {
		tr := NewTracer()
		traced, err := exec(tr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: traced run:", err)
			return 1
		}
		compareFingerprints(traced, rep.fingerprint, "untraced run of this process")
		tracePath := filepath.Join(*dir, fmt.Sprintf("trace-%s-seed%d.jsonl", *name, *seed))
		if err := tr.WriteJSONL(tracePath); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: trace export:", err)
			return 1
		}
		breakdown(traced, Reduce(tr.Spans()), tracePath)
		overhead(traced, rep)
		traced.attempted += rep.attempted
		traced.failed += rep.failed
		traced.problems = append(rep.problems, traced.problems...)
		traced.lines = append(append(rep.lines, "-- traced execution --"), traced.lines...)
		out = traced
		for _, m := range perLayer {
			metrics[m.name] = metricJSON{Value: out.layer[m.name], Unit: m.unit}
		}
	} else {
		for _, m := range endToEnd {
			metrics[m.name] = metricJSON{Value: out.e2e[m.name], Unit: m.unit}
		}
	}
	build, err := buildID()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	expectPath := filepath.Join(*dir, fmt.Sprintf("expect-%s-seed%d-s%g-%s.json", *name, *seed, *seconds, build))
	checkExpected(out, expectPath)

	for _, l := range out.lines {
		fmt.Println(l)
	}
	for _, p := range out.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	correct := len(out.problems) == 0
	if !correct && out.failed == 0 {
		out.failed = 1
	}
	if out.attempted < 1 {
		out.attempted = 1
	}
	for _, k := range sortedKeys(metrics) {
		if m := metrics[k]; math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Printf("CHECK FAILED: metric %s is %v\n", k, m.Value)
			m.Value, correct = 0, false
			metrics[k] = m
		}
	}
	line, err := json.Marshal(result{Correct: correct, Attempted: out.attempted, Failed: out.failed, Metrics: metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// compareFingerprints checks that every deterministic value of r equals
// want's.
func compareFingerprints(r *report, want map[string]float64, against string) {
	for _, k := range sortedKeys(want) {
		got, ok := r.fingerprint[k]
		r.check(ok && got == want[k], "%s = %v, %s had %v", k, got, against, want[k])
	}
	r.check(len(r.fingerprint) == len(want), "%d deterministic values, %s had %d", len(r.fingerprint), against, len(want))
}

// buildID names this build of the benchmark and the program: a rebuilt
// program may legitimately change its verdicts, so expectations are
// kept per build.
func buildID() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	b, err := os.ReadFile(exe)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:6]), nil
}

// checkExpected compares the run's deterministic values with those an
// earlier run of the same workload, seed and length left in path, or
// records them there for the next run.
func checkExpected(r *report, path string) {
	b, err := os.ReadFile(path)
	if err == nil {
		var want map[string]float64
		if r.check(json.Unmarshal(b, &want) == nil, "unreadable expectations %s", path) {
			compareFingerprints(r, want, "an earlier run of this seed")
		}
		return
	}
	if len(r.problems) > 0 {
		return
	}
	b, err = json.Marshal(r.fingerprint)
	if err == nil {
		err = os.WriteFile(path, b, 0o644)
	}
	r.check(err == nil, "record expectations: %v", err)
}

// breakdown turns a trace into the per-layer self times and checks that
// they and the unattributed rest add up to the end-to-end time.
func breakdown(r *report, b Breakdown, path string) {
	names := sortedKeys(b.Self)
	r.printf("trace: spans written to %s", path)
	r.printf("trace: end-to-end %.1f ms over %d root spans", ms(b.E2E), rootCount(b))
	for _, n := range names {
		r.printf("  %-22s self %10.1f ms  %5.1f%%  (%d spans)", n, ms(b.Self[n]), 100*float64(b.Self[n])/float64(b.E2E), b.Count[n])
	}
	r.printf("  %-22s self %10.1f ms  %5.1f%%", "unattributed", ms(b.Unattributed), 100*float64(b.Unattributed)/float64(b.E2E))
	sum := b.Attributed() + b.Unattributed
	r.check(sum == b.E2E, "layer self times + unattributed = %v, end-to-end = %v", sum, b.E2E)
	r.layer["unattributed_ms"] = ms(b.Unattributed)
	if b.E2E == 0 {
		r.check(false, "traced run recorded no end-to-end spans")
	}
}

func rootCount(b Breakdown) int {
	n := 0
	for name, c := range b.Count {
		if strings.HasPrefix(name, rootPrefix) {
			n += c
		}
	}
	return n
}

// overhead prints how the traced run's end-to-end metrics differ from
// the untraced run's.
func overhead(traced, plain *report) {
	for _, m := range endToEnd {
		a, b := plain.e2e[m.name], traced.e2e[m.name]
		if a == 0 || m.unit == "ratio" {
			continue
		}
		traced.printf("tracing overhead: %-12s untraced %12.4f  traced %12.4f %s  (%+.1f%%)", m.name, a, b, m.unit, 100*(b-a)/a)
	}
	if a := plain.e2e["ack_p50_ms"]; a > 0 {
		traced.layer["trace.overhead_pct"] = 100 * (traced.e2e["ack_p50_ms"] - a) / a
	}
}

// since is time.Since in seconds.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
