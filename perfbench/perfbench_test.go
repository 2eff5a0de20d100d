package main

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime/pprof"
	"testing"
	"time"

	"tscout/internal/archive"
	"tscout/internal/dbms"
	"tscout/internal/tscout"
	"tscout/internal/wal"
	"tscout/internal/workload"
)

func TestModuleOf(t *testing.T) {
	cases := []struct {
		name   string
		frames []string // innermost first
		want   string
	}{
		{"method", []string{"tscout/internal/sql.(*parser).parseSelect", "tscout/internal/dbms.(*Session).Statement"}, "sql"},
		{"allocation charged to caller", []string{"runtime.mallocgc", "runtime.makeslice", "tscout/internal/sql.lex", "tscout/internal/sql.Parse"}, "sql"},
		{"gc assist charged to caller", []string{"runtime.gcDrainN", "runtime.gcAssistAlloc", "runtime.mallocgc", "tscout/internal/exec.(*Engine).Execute"}, "exec"},
		{"stdlib under a module", []string{"sort.insertionSort", "sort.Sort", "tscout/internal/model.buildTree"}, "model"},
		{"closure", []string{"tscout/internal/tscout.(*Processor).Drain.func1", "runtime.goexit"}, "tscout"},
		{"generic", []string{"tscout/internal/bpf.run[...]", "tscout/internal/tscout.(*Collector).Begin"}, "bpf"},
		{"subpackage", []string{"tscout/internal/analysis/tsvet.main"}, "analysis"},
		{"gc worker", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack", "runtime.gcBgMarkWorker"}, "gc"},
		{"gc pseudo-frame", []string{"runtime._GC"}, "gc"},
		{"scheduler", []string{"runtime.findRunnable", "runtime.schedule"}, "other"},
		{"benchmark", []string{"main.(*tracer).begin", "main.collect"}, "other"},
		{"empty", nil, "other"},
	}
	for _, c := range cases {
		if got := moduleOf(c.frames); got != c.want {
			t.Errorf("%s: moduleOf(%q) = %q, want %q", c.name, c.frames, got, c.want)
		}
	}
	for _, fn := range []string{"tscout/internal/", "tscout/internal/.x", "tscout/perfbench.main", "tscout/internalx/sql.Parse"} {
		if m := internalModule(fn); m != "" {
			t.Errorf("internalModule(%q) = %q, want none", fn, m)
		}
	}
}

// spin burns CPU so the profiler has samples to decode.
func spin(d time.Duration) int {
	n := 0
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1000; i++ {
			n += i * i % 7
		}
	}
	return n
}

func TestParseCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	prof, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if prof.total == 0 || prof.periodNS <= 0 {
		t.Fatalf("decoded %d samples with period %d ns", prof.total, prof.periodNS)
	}
	var sum int64
	for _, n := range prof.samples {
		sum += n
	}
	if sum != prof.total || prof.samples["other"] == 0 {
		t.Fatalf("samples %v do not add up to %d or miss the benchmark's own frames", prof.samples, prof.total)
	}
	if _, err := parseCPUProfile([]byte("not a profile")); err == nil {
		t.Fatal("garbage parsed as a profile")
	}
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

func TestTracedSinkForwardsStickyErr(t *testing.T) {
	w := archive.NewWriterSize(failingWriter{}, 1)
	var sink tscout.Sink = &tracedSink{inner: w, tr: newTracer()}
	sticky, ok := sink.(tscout.StickySink)
	if !ok {
		t.Fatal("traced sink is not a tscout.StickySink")
	}
	if err := sticky.StickyErr(); err != nil {
		t.Fatalf("healthy sink reports %v", err)
	}
	if err := sink.WriteBatch(make([]tscout.TrainingPoint, 1)); err == nil {
		t.Fatal("write to a failing destination succeeded")
	}
	if err := sticky.StickyErr(); err == nil || err != w.StickyErr() {
		t.Fatalf("StickyErr = %v, want the writer's %v", err, w.StickyErr())
	}
}

// fakeGen records the calls the wrapper forwards.
type fakeGen struct{ setups, txns int }

func (g *fakeGen) Name() string             { return "fake" }
func (g *fakeGen) Setup(*dbms.Server) error { g.setups++; return nil }
func (g *fakeGen) Txn(*dbms.Session, *rand.Rand) (*wal.Commit, error) {
	g.txns++
	return nil, nil
}

func TestTracedGenForwards(t *testing.T) {
	inner := &fakeGen{}
	tr := newTracer()
	tr.nextRound()
	var g workload.Generator = &tracedGen{inner: inner, tr: tr}
	if g.Name() != "fake" {
		t.Fatalf("Name = %q, want the wrapped generator's", g.Name())
	}
	if err := g.Setup(nil); err != nil || inner.setups != 1 {
		t.Fatalf("Setup not forwarded: err %v, calls %d", err, inner.setups)
	}
	if _, err := g.Txn(nil, nil); err != nil || inner.txns != 1 {
		t.Fatalf("Txn not forwarded: err %v, calls %d", err, inner.txns)
	}
	if n := len(tr.durations("workload.setup")); n != 1 {
		t.Fatalf("%d setup spans, want 1", n)
	}
}

// TestDrainGap checks that a drain gap spans from the last transaction to
// the drain hook and adopts the sink spans recorded inside it.
func TestDrainGap(t *testing.T) {
	tr := newTracer()
	tr.nextRound()
	run := tr.begin("workload.run")
	tr.onDrain(0) // before any transaction: no gap
	txn := tr.begin("dbms.txn")
	tr.endTxn(txn)
	write := tr.begin("archive.write_batch")
	tr.end(write)
	tr.onDrain(0)
	tr.end(run)

	gaps := 0
	for i, s := range tr.spans {
		if s.name != "workload.drain_gap" {
			continue
		}
		gaps++
		if s.parent != run || s.start != tr.spans[txn].end || s.end < tr.spans[write].end {
			t.Fatalf("gap %+v: want parent %d, start at the txn end %d, end after the write", s, run, tr.spans[txn].end)
		}
		if tr.spans[write].parent != int32(i) {
			t.Fatalf("write span parent = %d, want the gap %d", tr.spans[write].parent, i)
		}
	}
	if gaps != 1 {
		t.Fatalf("%d drain gaps, want 1", gaps)
	}
	if tr.spans[txn].parent != run {
		t.Fatalf("txn parent = %d, want the run %d", tr.spans[txn].parent, run)
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := percentile(xs, 0.5); got != 3 {
		t.Errorf("p50 = %v, want 3", got)
	}
	if got := percentile(xs, 0.99); got != 5 {
		t.Errorf("p99 = %v, want 5", got)
	}
	if got := batchSizeP50([tscout.BatchHistBuckets]int64{1, 1, 5}); got != 16 {
		t.Errorf("batch p50 = %v, want 16", got)
	}
}
