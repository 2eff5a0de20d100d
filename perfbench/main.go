// Command perfbench is the repository benchmark. It drives the TScout
// pipeline through its public packages on one workload for a fixed wall
// time, checks every output, and prints the metrics BENCHMARK.json names
// as one JSON object on the last line of standard output. Build and run
// it from the repository root with
//
//	bash perfbench/run.sh --workload tpcc-collect --seed 1 --seconds 20 --trace 0
//
// A run repeats rounds until --seconds have passed. Each round builds the
// system afresh from the seed (the set-up), runs the timed job and checks
// it; each metric is the median over the rounds. With --trace 1 the rounds
// alternate between untraced and traced ones, and the run prints the
// per-layer metrics of the traced rounds: span timings, pipeline
// counters, and CPU time per module from a CPU profile of the timed phase.
// The line before the result is a report with the run context, the
// determinism digest and, for traced runs, the sample count behind each
// per-layer metric.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"tscout/internal/archive"
	"tscout/internal/model"
)

// roundCtx is what a round is given: the seed, and for a traced round
// the tracer and the profiler (nil otherwise).
type roundCtx struct {
	seed  int64
	first bool // first round of an untraced run
	tr    *tracer
	prof  *profiler
}

// round is what one set-up plus timed job produced.
type round struct {
	setupS    float64
	e2e       map[string]float64 // end-to-end metrics other than setup_s
	layer     map[string]float64 // per-round layer metrics of a traced round
	work      float64            // txns run, or archive rows read
	rate      float64            // work per wall second of the timed job
	traced    bool
	attempted int
	aborted   int      // operations that failed without failing a check
	problems  []string // failed checks
	digest    string
}

// workloadDef is one benchmark workload.
type workloadDef struct {
	name  string
	spec  collectSpec // the collection the workload runs
	round func(roundCtx) (*round, error)
	// workUnit is how much work the per-module CPU time is reported per:
	// 1000 transactions, or 10000 archive rows.
	workUnit float64
}

var workloads = []workloadDef{
	{name: "tpcc-collect", spec: tpccCollect, round: collectRound(tpccCollect), workUnit: 1000},
	{name: "smallbank-pool8", spec: smallbankPool8, round: collectRound(smallbankPool8), workUnit: 1000},
	{name: "archive-train", spec: chCollect, round: archiveTrainRound, workUnit: 10000},
}

// collectRound is one round of a collection workload: the set-up builds
// and loads the server, the timed job runs the transaction budget and
// flushes the archive, and the archive is then read back and checked.
func collectRound(spec collectSpec) func(roundCtx) (*round, error) {
	return func(rc roundCtx) (*round, error) {
		c, err := collect(spec, rc.seed, rc.tr, rc.prof, false)
		if err != nil {
			return nil, err
		}
		rd := &round{
			setupS:    c.setupS,
			attempted: c.txns(),
			aborted:   c.res.Aborted,
			work:      float64(c.txns()),
			e2e:       c.endToEnd(),
			digest:    c.digest(),
		}
		rd.rate = rd.e2e["txn_per_s"]

		r, points, readS, err := readBack(c.archive.Bytes())
		if err != nil {
			rd.problems = c.check(nil, err)
			return rd, nil
		}
		rd.problems = c.check(r, nil)
		if int64(len(points)) != r.NumRows() {
			rd.problems = append(rd.problems, fmt.Sprintf("FromArchive returned %d points, archive has %d rows", len(points), r.NumRows()))
		}
		rd.e2e["rows_per_s"] = float64(r.NumRows()) / readS
		if rc.first {
			if rd.e2e["model_mae_us"], _, err = heldOutMAE(points, rc.seed, nil); err != nil {
				rd.problems = append(rd.problems, fmt.Sprintf("model: %v", err))
			}
		}
		// Measured after the last use of points: model points are not
		// part of what a collection retains.
		rd.e2e["heap_retained_mb"] = heapRetainedMB(c, r)
		if rc.tr != nil {
			rd.layer = c.layers()
		}
		return rd, nil
	}
}

// readBack opens and verifies the archive and converts it to model
// points, the path a consumer of the archive takes, and returns the wall
// time that took.
func readBack(data []byte) (*archive.Reader, []model.Point, float64, error) {
	start := time.Now()
	r, err := archive.NewReader(data)
	if err != nil {
		return nil, nil, 0, err
	}
	if err := r.Verify(); err != nil {
		return nil, nil, 0, err
	}
	points, err := model.FromArchive(r, nil)
	return r, points, time.Since(start).Seconds(), err
}

// heapRetainedMB forces a collection and returns the live heap in MiB
// while keep, the round's server, writer and reader, is still reachable.
func heapRetainedMB(keep ...any) float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(keep)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// metricDef is one reported metric and its unit.
type metricDef struct{ name, unit string }

var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"txn_per_s", "txn/s"},
	{"points_per_s", "points/s"},
	{"rows_per_s", "rows/s"},
	{"heap_retained_mb", "MiB"},
	{"vtxn_per_vs", "txn/vs"},
	{"vpoints_per_vs", "points/vs"},
	{"sample_kept_frac", "ratio"},
	{"txn_commit_frac", "ratio"},
	{"model_mae_us", "us"},
}

// cpuModules are the modules CPU time is reported for, in the order of the
// request path; "gc" is the GC background workers and "other" every
// sample with no repository frame.
var cpuModules = []string{
	"network", "dbms", "sql", "exec", "catalog", "storage", "index", "txn", "wal",
	"workload", "sim", "kernel", "bpf", "tscout", "archive", "model", "autopilot",
	"gc", "other",
}

// spanMetrics are per-layer metrics read from spans: the total per round
// (median over traced rounds), or a percentile over every span of the
// traced rounds.
var spanMetrics = []struct {
	name, unit, span string
	scale            float64 // ns to unit
	q                float64 // percentile; 0 = total per round
}{
	{"dbms.new_server_ms", "ms", "dbms.new_server", 1e-6, 0},
	{"workload.setup_ms", "ms", "workload.setup", 1e-6, 0},
	{"dbms.txn_us.p50", "us", "dbms.txn", 1e-3, 0.50},
	{"dbms.txn_us.p99", "us", "dbms.txn", 1e-3, 0.99},
	{"workload.drain_gap_us.p50", "us", "workload.drain_gap", 1e-3, 0.50},
	{"workload.drain_gap_us.p99", "us", "workload.drain_gap", 1e-3, 0.99},
	{"archive.write_batch_us.p50", "us", "archive.write_batch", 1e-3, 0.50},
	{"archive.write_batch_us.p99", "us", "archive.write_batch", 1e-3, 0.99},
	{"archive.flush_ms", "ms", "archive.flush", 1e-6, 0},
	{"archive.open_ms", "ms", "archive.open", 1e-6, 0},
	{"archive.verify_ms", "ms", "archive.verify", 1e-6, 0},
	{"exec.archive_sql_ms.groupby", "ms", "exec.archive_sql.groupby", 1e-6, 0},
	{"exec.archive_sql_ms.pushdown", "ms", "exec.archive_sql.pushdown", 1e-6, 0},
	{"exec.archive_sql_ms.project", "ms", "exec.archive_sql.project", 1e-6, 0},
	{"model.from_archive_ms", "ms", "model.from_archive", 1e-6, 0},
	{"model.observe_ms", "ms", "model.observe", 1e-6, 0},
	{"model.refit_ms.p50", "ms", "model.refit", 1e-6, 0.50},
	{"model.refit_ms.p99", "ms", "model.refit", 1e-6, 0.99},
	{"model.train_ms", "ms", "model.train", 1e-6, 0},
}

// roundMetrics are per-layer metrics each traced round reports itself.
var roundMetrics = []metricDef{
	{"runtime.alloc_kb_per_txn", "KiB"},
	{"runtime.allocs_per_txn", "count"},
	{"runtime.gc_cycles", "count"},
	{"bpf.jit_compiled_programs", "count"},
	{"tscout.points_per_txn", "count"},
	{"tscout.polls", "count"},
	{"tscout.batch_size_p50", "count"},
	{"tscout.sink_retries", "count"},
	{"archive.points_per_batch", "count"},
	{"archive.seals", "count"},
	{"archive.bytes_per_point", "B"},
	{"sim.epochs", "count"},
	{"sim.barrier_events", "count"},
	{"dbms.gate_queued", "count"},
	{"dbms.gate_wait_us_mean", "us"},
	{"archive.scan_rows_per_s", "rows/s"},
	{"archive.scan_skip_frac", "ratio"},
	{"model.prequential_mae_us", "us"},
	{"model.template_mae_us", "us"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// layerEntry is a per-layer metric in the report, with the number of
// samples (profile samples, spans or rounds) behind it.
type layerEntry struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int64   `json:"samples"`
}

// runContext records where and how a run was made.
type runContext struct {
	Workload         string `json:"workload"`
	Seed             int64  `json:"seed"`
	Seconds          int    `json:"seconds"`
	Trace            bool   `json:"trace"`
	GOMAXPROCS       int    `json:"gomaxprocs"`
	NumCPU           int    `json:"nproc"`
	CPUModel         string `json:"cpu_model"`
	GoVersion        string `json:"go_version"`
	GOGC             string `json:"gogc"`
	Commit           string `json:"commit"`
	SourceSHA256     string `json:"source_sha256"`
	DrainParallelism int    `json:"drain_parallelism"`
}

type report struct {
	Context    runContext            `json:"context"`
	Digest     string                `json:"digest"`
	Rounds     int                   `json:"rounds"`
	Traced     int                   `json:"traced_rounds"`
	RoundRates []float64             `json:"round_rates"` // work per wall second of each round's timed job
	Problems   []string              `json:"problems,omitempty"`
	Layers     map[string]layerEntry `json:"layers,omitempty"`
	SpanSelfMS map[string]float64    `json:"span_self_ms,omitempty"`
	SpansFile  string                `json:"spans_file,omitempty"`
}

// spansDir is where a traced run writes its spans, inside the build
// directory of the checkout.
const spansDir = ".bench_build/trace"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload to run: tpcc-collect, smallbank-pool8 or archive-train")
	seed := fl.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := fl.Int("seconds", 10, "wall seconds to keep starting rounds for")
	traceFlag := fl.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	var wl *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (tpcc-collect, smallbank-pool8, archive-train), --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	if p := wl.spec.server.ProcessorParallelism; p > runtime.NumCPU() {
		fmt.Fprintf(stderr, "perfbench: %s drains with %d threads but this machine has %d CPUs\n", wl.name, p, runtime.NumCPU())
		return 2
	}
	traced := *traceFlag == 1

	rep := report{Context: runContextOf(wl, *seed, *seconds, traced)}
	var (
		tr   *tracer
		prof *profiler
	)
	if traced {
		tr, prof = newTracer(), newProfiler()
	}
	rounds, err := runRounds(wl, *seed, time.Duration(*seconds)*time.Second, tr, prof)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}

	res := result{Metrics: map[string]metric{}}
	var plain, tracedR []*round
	digests := map[string]bool{}
	for _, rd := range rounds {
		res.Attempted += rd.attempted
		res.Failed += rd.aborted
		rep.Problems = append(rep.Problems, rd.problems...)
		rep.RoundRates = append(rep.RoundRates, rd.rate)
		digests[rd.digest] = true
		if rd.traced {
			tracedR = append(tracedR, rd)
		} else {
			plain = append(plain, rd)
		}
	}
	rep.Rounds, rep.Traced, rep.Digest = len(rounds), len(tracedR), rounds[0].digest
	if len(digests) != 1 {
		rep.Problems = append(rep.Problems, fmt.Sprintf("rounds of one seed gave %d different digests", len(digests)))
	}

	if traced {
		if rep.Layers, err = layerMetrics(wl, tr, prof, plain, tracedR); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		for name, e := range rep.Layers {
			res.Metrics[name] = metric{e.Value, e.Unit}
		}
		rep.SpanSelfMS = map[string]float64{}
		for name, ns := range tr.selfTimes() {
			rep.SpanSelfMS[name] = ns / 1e6 / float64(len(tracedR))
		}
		rep.SpansFile = filepath.Join(spansDir, wl.name+".spans.jsonl")
		if err := tr.writeJSONL(rep.SpansFile); err != nil {
			fmt.Fprintf(stderr, "perfbench: write spans: %v\n", err)
			return 1
		}
	} else {
		var bad []string
		res.Metrics, bad = endToEnd(plain)
		rep.Problems = append(rep.Problems, bad...)
	}
	// Every failed check is a failed operation too.
	res.Failed += len(rep.Problems)
	res.Correct = len(rep.Problems) == 0

	out := bufio.NewWriter(stdout)
	enc := json.NewEncoder(out)
	if err := enc.Encode(map[string]report{"report": rep}); err == nil {
		err = enc.Encode(res)
	}
	if err == nil {
		err = out.Flush()
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !res.Correct {
		for _, p := range rep.Problems {
			fmt.Fprintf(stderr, "perfbench: check failed: %s\n", p)
		}
		return 1
	}
	return 0
}

// runRounds runs rounds until budget has passed and enough rounds are in,
// and returns them in the order they ran. With a tracer every other round
// is traced.
func runRounds(wl *workloadDef, seed int64, budget time.Duration, tr *tracer, prof *profiler) ([]*round, error) {
	var rounds []*round
	var plain, traced int
	start := time.Now()
	for i := 0; ; i++ {
		rc := roundCtx{seed: seed, first: i == 0 && tr == nil}
		if tr != nil && i%2 == 1 {
			rc.tr, rc.prof = tr, prof
			tr.nextRound()
		}
		runtime.GC() // start every round from the same heap
		rd, err := wl.round(rc)
		if err != nil {
			return nil, fmt.Errorf("%s round %d: %w", wl.name, i, err)
		}
		rd.traced = rc.tr != nil
		if rd.traced {
			traced++
		} else {
			plain++
		}
		rounds = append(rounds, rd)
		if time.Since(start) >= budget && plain >= 3 && (tr == nil || traced >= 2) {
			return rounds, nil
		}
	}
}

// endToEnd returns the median of each end-to-end metric over the rounds,
// and a problem for any metric that is missing or not a positive number.
func endToEnd(rounds []*round) (map[string]metric, []string) {
	out := map[string]metric{}
	var bad []string
	for _, m := range endToEndMetrics {
		var vals []float64
		for _, rd := range rounds {
			if m.name == "setup_s" {
				vals = append(vals, rd.setupS)
			} else if v, ok := rd.e2e[m.name]; ok {
				vals = append(vals, v)
			}
		}
		v := median(vals)
		if len(vals) == 0 || v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			bad = append(bad, fmt.Sprintf("%s = %v over %d rounds", m.name, v, len(vals)))
			v = 0
		}
		out[m.name] = metric{v, m.unit}
	}
	return out, bad
}

// layerMetrics assembles every per-layer metric of a traced run.
func layerMetrics(wl *workloadDef, tr *tracer, prof *profiler, plain, traced []*round) (map[string]layerEntry, error) {
	if prof.err != nil {
		return nil, prof.err
	}
	out := map[string]layerEntry{}
	var work float64
	rates := make([]float64, len(traced))
	for i, rd := range traced {
		work += rd.work
		rates[i] = rd.rate
	}
	units := work / wl.workUnit
	for _, m := range cpuModules {
		n := prof.acc.samples[m]
		out["cpu_ms."+m] = layerEntry{float64(n*prof.acc.periodNS) / 1e6 / units, "ms", n}
	}
	for _, m := range spanMetrics {
		ds := tr.durations(m.span)
		v := median(tr.roundTotals(m.span, len(traced)))
		if m.q > 0 {
			v = percentile(ds, m.q)
		}
		out[m.name] = layerEntry{v * m.scale, m.unit, int64(len(ds))}
	}
	for _, m := range roundMetrics {
		vals := make([]float64, len(traced))
		for i, rd := range traced {
			vals[i] = rd.layer[m.name]
		}
		out[m.name] = layerEntry{median(vals), m.unit, int64(len(vals))}
	}
	plainRates := make([]float64, len(plain))
	for i, rd := range plain {
		plainRates[i] = rd.rate
	}
	out["trace.overhead_frac"] = layerEntry{1 - median(rates)/median(plainRates), "ratio", int64(len(rates) + len(plainRates))}
	return out, nil
}

// runContextOf records the machine, toolchain and source of a run.
func runContextOf(wl *workloadDef, seed int64, seconds int, traced bool) runContext {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	par := wl.spec.server.ProcessorParallelism
	if par < 1 {
		par = 1
	}
	return runContext{
		Workload: wl.name, Seed: seed, Seconds: seconds, Trace: traced,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPUModel: cpuModel(), GoVersion: runtime.Version(), GOGC: gogc,
		Commit: gitCommit(), SourceSHA256: sourceDigest("."),
		DrainParallelism: par,
	}
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit returns the commit checked out in ., or "none" when . is not
// a git work tree (a source export).
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, _ := os.ReadFile(filepath.Join(".git", "packed-refs")) // missing means the ref is unknown
	for _, line := range strings.Split(string(packed), "\n") {
		if id, r, ok := strings.Cut(line, " "); ok && r == ref {
			return id
		}
	}
	return "unknown"
}

// sourceDigest hashes go.mod and every .go file under root, skipping
// hidden directories: it names the source a run was built from even when
// the checkout carries no commit.
func sourceDigest(root string) string {
	h := sha256.New()
	var paths []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if d.Name() == "go.mod" || strings.HasSuffix(d.Name(), ".go") {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(paths)
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(p), len(data))
		h.Write(data)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}
