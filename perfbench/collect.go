package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"runtime"
	"time"

	"tscout/internal/archive"
	"tscout/internal/dbms"
	"tscout/internal/tscout"
	"tscout/internal/wal"
	"tscout/internal/workload"
)

// collectSpec is one instrumented collection run: the server, the
// generator and the driver settings. The seed fills in the rest.
type collectSpec struct {
	server dbms.Config
	gen    func() workload.Generator
	driver workload.Config
	// rates are the sampling rates (percent) per subsystem, in
	// tscout.AllSubsystems order.
	rates [tscout.NumSubsystems]int
}

// allRates samples every subsystem at 100%.
var allRates = [tscout.NumSubsystems]int{100, 100, 100, 100}

// steadyRates samples the execution engine at 20% and networking at 25%:
// the rates the Processor's feedback settles at on the single-CPU TPC-C
// configuration when it starts from 100%. Starting there, the rings never
// overflow and the feedback never fires; starting from 100%, it cuts the
// rates in 20% steps at seed-dependent moments, and the points collected
// per transaction then differ by up to 20% between seeds.
var steadyRates = [tscout.NumSubsystems]int{20, 25, 100, 100}

// goldenTPCC is the TPC-C scale of every recorded experiment and of the
// repository's golden fingerprint.
func goldenTPCC() workload.TPCC {
	return workload.TPCC{Warehouses: 1, CustomersPerDistrict: 10, Items: 100, InitialOrdersPerDistrict: 10}
}

// tpccCollect runs the legacy single-clock driver on one simulated CPU,
// where the DBMS statement path does most of the work.
var tpccCollect = collectSpec{
	server: dbms.Config{
		NoiseSigma: 0.03, Instrument: true,
		WAL: wal.Config{GroupSize: 8, FlushIntervalNS: 100_000},
	},
	gen: func() workload.Generator {
		g := goldenTPCC()
		return &g
	},
	driver: workload.Config{Terminals: 4, Transactions: 5000, FinalDrain: true},
	rates:  steadyRates,
}

// smallbankPool8 runs the pooled epoch/barrier driver on eight simulated
// CPUs with two drain threads, where the Collector, drain and sink do
// most of the work.
var smallbankPool8 = collectSpec{
	server: dbms.Config{
		NoiseSigma: 0.03, Instrument: true,
		NumCPUs: 8, ProcessorParallelism: 2,
		WAL: wal.Config{GroupSize: 32, FlushIntervalNS: 25_000},
	},
	gen:    func() workload.Generator { return &workload.SmallBank{Customers: 1000} },
	driver: workload.Config{Terminals: 2000, Transactions: 20000, PoolSessions: 128, FinalDrain: true},
	rates:  allRates,
}

// chCollect is the CH-benCHmark run archive-train collects in its set-up.
var chCollect = collectSpec{
	server: tpccCollect.server,
	gen: func() workload.Generator {
		return &workload.CHBench{TPCC: goldenTPCC()}
	},
	driver: workload.Config{Terminals: 4, Transactions: 2000, FinalDrain: true},
	rates:  steadyRates,
}

// collection is one finished collection run and what it left behind.
type collection struct {
	spec     collectSpec
	srv      *dbms.Server
	writer   *archive.Writer
	archive  *bytes.Buffer
	res      workload.Result
	segments [][]byte // sealed segments, in seal order, when asked for

	setupS float64 // dbms.NewServer plus Generator.Setup
	runS   float64 // workload.Run plus the final sink flush

	// Traced runs only.
	sink *tracedSink
	dst  *countingWriter
	mem  runtime.MemStats // allocation during the run: end minus start
}

// collect builds the server, loads it and runs the collection. With
// keepSegments the sealed segments are kept for a segment-by-segment
// reader. prof, when set, profiles the run phase.
func collect(spec collectSpec, seed int64, tr *tracer, prof *profiler, keepSegments bool) (*collection, error) {
	c := &collection{spec: spec, archive: &bytes.Buffer{}}
	var dst io.Writer = c.archive
	if tr != nil {
		c.dst = &countingWriter{w: c.archive}
		dst = c.dst
	}
	c.writer = archive.NewWriter(dst)
	if keepSegments {
		c.writer.SetOnSeal(func(seg []byte) { c.segments = append(c.segments, seg) })
	}
	var sink tscout.Sink = c.writer
	gen := spec.gen()
	cfg := spec.driver
	cfg.Seed = seed
	if tr != nil {
		c.sink = &tracedSink{inner: c.writer, tr: tr}
		sink = c.sink
		gen = &tracedGen{inner: gen, tr: tr}
		cfg.OnDrain = tr.onDrain
	}

	start := time.Now()
	scfg := spec.server
	scfg.Seed = seed
	scfg.Sink = sink
	id := tr.begin("dbms.new_server")
	srv, err := dbms.NewServer(scfg)
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("new server: %w", err)
	}
	c.srv = srv
	if err := gen.Setup(srv); err != nil {
		return nil, fmt.Errorf("%s setup: %w", gen.Name(), err)
	}
	for _, sub := range tscout.AllSubsystems {
		srv.TS.Sampler().SetRate(sub, spec.rates[sub])
	}
	c.setupS = time.Since(start).Seconds()

	var before runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&before)
	}
	prof.start()
	start = time.Now()
	id = tr.begin("workload.run")
	c.res, err = workload.Run(srv, gen, cfg)
	tr.end(id)
	if err == nil {
		err = sink.Flush()
	}
	c.runS = time.Since(start).Seconds()
	prof.stop()
	if tr != nil {
		runtime.ReadMemStats(&c.mem)
		c.mem.TotalAlloc -= before.TotalAlloc
		c.mem.Mallocs -= before.Mallocs
		c.mem.NumGC -= before.NumGC
	}
	if err != nil {
		return nil, fmt.Errorf("%s run: %w", gen.Name(), err)
	}
	return c, nil
}

// txns is the transaction budget the driver ran.
func (c *collection) txns() int { return c.spec.driver.Transactions }

// check runs the collection's correctness gate against r, a reader over
// the archive it wrote, and returns the checks that failed.
func (c *collection) check(r *archive.Reader, verifyErr error) []string {
	var bad []string
	if got := c.res.Completed + c.res.Aborted; got != c.txns() {
		bad = append(bad, fmt.Sprintf("completed+aborted = %d, want the budget %d", got, c.txns()))
	}
	st := c.res.Processor
	var sub, drained, dropped int64
	for _, s := range st.Kernel {
		sub, drained, dropped = sub+s.Submitted, drained+s.Drained, dropped+s.Dropped
	}
	sub, drained, dropped = sub+st.User.Submitted, drained+st.User.Drained, dropped+st.User.Dropped
	if sub != drained+dropped {
		bad = append(bad, fmt.Sprintf("after the final drain submitted %d != drained %d + dropped %d", sub, drained, dropped))
	}
	if verifyErr != nil {
		bad = append(bad, fmt.Sprintf("archive verify: %v", verifyErr))
	}
	if r != nil {
		if n := r.NumRows(); n != c.res.TrainingPoints || n != c.writer.Rows() {
			bad = append(bad, fmt.Sprintf("archive rows %d, training points %d, writer rows %d differ",
				n, c.res.TrainingPoints, c.writer.Rows()))
		}
	}
	return bad
}

// digest hashes the collection's virtual outcome: the Result scalars and
// the archive bytes. Same seed, same digest, on any machine and whether
// or not the run was traced.
func (c *collection) digest() string {
	r := c.res
	h := sha256.New()
	fmt.Fprintf(h, "completed=%d aborted=%d elapsed=%d tps=%.17g p50=%d p99=%d mean=%d points=%d sps=%.17g "+
		"processed=%d polls=%d epochs=%d barrier=%d admitted=%d queued=%d rejected=%d waitns=%d archive=%x\n",
		r.Completed, r.Aborted, r.ElapsedNS, r.ThroughputTPS, r.P50NS, r.P99NS, r.MeanNS,
		r.TrainingPoints, r.SamplesPerSec, r.Processor.Processed, r.Processor.Polls,
		r.Epochs, r.BarrierEvents, r.Admission.Admitted, r.Admission.Queued,
		r.Admission.Rejected, r.Admission.TotalWaitNS, sha256.Sum256(c.archive.Bytes()))
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// keptFrac is the share of submitted samples that reached the archive:
// samples lost to ring drops, decode errors, corrupt-sample discards and
// sink rejections count against it.
func (c *collection) keptFrac() float64 {
	st := c.res.Processor
	var sub, lost int64
	add := func(s tscout.SubsystemStats) {
		sub += s.Submitted
		lost += s.Dropped + s.DecodeErrors + s.CorruptDiscards + s.SinkErrors
	}
	for _, s := range st.Kernel {
		add(s)
	}
	add(st.User)
	if sub == 0 {
		return 0
	}
	return float64(sub-lost) / float64(sub)
}

// endToEnd returns the collection's end-to-end metrics.
func (c *collection) endToEnd() map[string]float64 {
	r := c.res
	return map[string]float64{
		"txn_per_s":        float64(r.Completed) / c.runS,
		"points_per_s":     float64(r.TrainingPoints) / c.runS,
		"vtxn_per_vs":      r.ThroughputTPS,
		"vpoints_per_vs":   r.SamplesPerSec,
		"sample_kept_frac": c.keptFrac(),
		"txn_commit_frac":  float64(r.Completed) / float64(r.Completed+r.Aborted),
	}
}

// layers returns the per-layer metrics of a traced collection that are
// one number per run; span percentiles are pooled across rounds instead.
func (c *collection) layers() map[string]float64 {
	r := c.res
	st := r.Processor
	txns := float64(c.txns())
	jit := 0
	for _, j := range st.JIT {
		jit += j.CompiledPrograms()
	}
	gateWait := 0.0
	if r.Admission.Queued > 0 {
		gateWait = float64(r.Admission.TotalWaitNS) / float64(r.Admission.Queued) / 1e3
	}
	perBatch := 0.0
	if n := c.sink.batches.Load(); n > 0 {
		perBatch = float64(c.sink.points.Load()) / float64(n)
	}
	bytesPerPoint := 0.0
	if r.TrainingPoints > 0 {
		bytesPerPoint = float64(c.dst.bytes) / float64(r.TrainingPoints)
	}
	return map[string]float64{
		"runtime.alloc_kb_per_txn":  float64(c.mem.TotalAlloc) / 1024 / txns,
		"runtime.allocs_per_txn":    float64(c.mem.Mallocs) / txns,
		"runtime.gc_cycles":         float64(c.mem.NumGC),
		"bpf.jit_compiled_programs": float64(jit),
		"tscout.points_per_txn":     float64(r.TrainingPoints) / txns,
		"tscout.polls":              float64(st.Polls),
		"tscout.batch_size_p50":     batchSizeP50(st.BatchSizeHist),
		"tscout.sink_retries":       float64(st.SinkRetries),
		"archive.points_per_batch":  perBatch,
		"archive.seals":             float64(c.dst.writes),
		"archive.bytes_per_point":   bytesPerPoint,
		"sim.epochs":                float64(r.Epochs),
		"sim.barrier_events":        float64(r.BarrierEvents),
		"dbms.gate_queued":          float64(r.Admission.Queued),
		"dbms.gate_wait_us_mean":    gateWait,
	}
}

// batchSizeUpper is the largest drain batch each BatchSizeHist bucket
// holds; the open last bucket is read as twice its lower bound.
var batchSizeUpper = [tscout.BatchHistBuckets]float64{1, 4, 16, 64, 256, 514}

// batchSizeP50 returns the upper bound of the drain-batch-size bucket that
// holds the median batch.
func batchSizeP50(hist [tscout.BatchHistBuckets]int64) float64 {
	var total int64
	for _, n := range hist {
		total += n
	}
	var seen int64
	for i, n := range hist {
		seen += n
		if total > 0 && 2*seen >= total {
			return batchSizeUpper[i]
		}
	}
	return 0
}
