package main

import (
	"bufio"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tscout/internal/dbms"
	"tscout/internal/tscout"
	"tscout/internal/wal"
	"tscout/internal/workload"
)

// span is one timed call the benchmark made or wrapped. Times are wall
// nanoseconds since the tracer started; parent is the index of the
// enclosing span, or -1.
type span struct {
	name       string
	start, end int64
	parent     int32
	round      int32
}

// tracer records spans in memory for the traced rounds of a run. An
// untraced round has a nil *tracer, on which nextRound, begin, end and
// endTxn do nothing, so the workload code calls them unconditionally.
type tracer struct {
	epoch time.Time

	mu      sync.Mutex
	spans   []span  // guarded by mu
	open    []int32 // guarded by mu — stack of spans begun and not yet ended
	round   int32   // guarded by mu — index of the current traced round
	lastTxn int64   // guarded by mu — end of the last Generator.Txn span
	gapFrom int     // guarded by mu — first span recorded after lastTxn
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), round: -1} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// nextRound starts the span scope of a new traced round.
func (t *tracer) nextRound() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.round++
	t.open = t.open[:0]
	t.lastTxn, t.gapFrom = -1, len(t.spans)
	t.mu.Unlock()
}

// begin opens a span nested in the innermost open one and returns its id.
func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, start: start, end: -1, parent: parent, round: t.round})
	t.open = append(t.open, id)
	return id
}

// end closes span id.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].end = end
	for i := len(t.open) - 1; i >= 0; i-- {
		if t.open[i] == id {
			t.open = append(t.open[:i], t.open[i+1:]...)
			break
		}
	}
}

// endTxn closes a Generator.Txn span and marks the start of the next
// drain gap.
func (t *tracer) endTxn(id int32) {
	if t == nil || id < 0 {
		return
	}
	t.end(id)
	t.mu.Lock()
	t.lastTxn, t.gapFrom = t.spans[id].end, len(t.spans)
	t.mu.Unlock()
}

// onDrain is the workload.Config.OnDrain hook of a traced run. It records
// the drain gap: the interval from the last Generator.Txn return to this
// call, which covers WAL commit staging, the epoch barrier,
// Processor.Drain and the sink. Spans recorded inside that interval
// (the sink's) become its children.
func (t *tracer) onDrain(int64) {
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.lastTxn < 0 {
		return // a drain before the first transaction has no gap to measure
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	gap := int32(len(t.spans))
	for i := t.gapFrom; i < len(t.spans); i++ {
		if t.spans[i].parent == parent {
			t.spans[i].parent = gap
		}
	}
	t.spans = append(t.spans, span{name: "workload.drain_gap", start: t.lastTxn, end: end, parent: parent, round: t.round})
	t.gapFrom = len(t.spans)
}

// durations returns the durations, in ns, of every closed span called name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.name == name && s.end >= 0 {
			out = append(out, float64(s.end-s.start))
		}
	}
	return out
}

// roundTotals sums, for each of the first rounds traced rounds, the
// durations in ns of the closed spans called name.
func (t *tracer) roundTotals(name string, rounds int) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	sums := make([]float64, rounds)
	for _, s := range t.spans {
		if s.name == name && s.end >= 0 && int(s.round) < rounds {
			sums[s.round] += float64(s.end - s.start)
		}
	}
	return sums
}

// writeJSONL writes every span as one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	t.mu.Lock()
	enc := json.NewEncoder(bw)
	for i, s := range t.spans {
		if err = enc.Encode(struct {
			ID     int    `json:"id"`
			Parent int32  `json:"parent"`
			Round  int32  `json:"round"`
			Name   string `json:"name"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
		}{i, s.parent, s.round, s.name, s.start, s.end}); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// selfTimes sums, per span name, the span durations minus the part of
// each covered by its direct children: the time a layer spent in its own
// code rather than in the layers it called.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 && s.end >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := map[string]float64{}
	for i, s := range t.spans {
		if s.end >= 0 {
			out[s.name] += float64(s.end - s.start - child[i])
		}
	}
	return out
}

// tracedGen wraps a workload.Generator with a span per Setup and Txn. It
// forwards Name and Setup, so workload.Run sees the same benchmark.
type tracedGen struct {
	inner workload.Generator
	tr    *tracer
}

func (g *tracedGen) Name() string { return g.inner.Name() }

func (g *tracedGen) Setup(srv *dbms.Server) error {
	id := g.tr.begin("workload.setup")
	defer g.tr.end(id)
	return g.inner.Setup(srv)
}

func (g *tracedGen) Txn(se *dbms.Session, rng *rand.Rand) (*wal.Commit, error) {
	id := g.tr.begin("dbms.txn")
	defer g.tr.endTxn(id)
	return g.inner.Txn(se, rng)
}

// tracedSink wraps the archive writer the Processor delivers to. It must
// stay a tscout.StickySink: the Processor type-asserts for that interface
// to fail fast on a dead sink, and a wrapper without it would send the
// traced run down a different path from the untraced one.
type tracedSink struct {
	inner   tscout.StickySink
	tr      *tracer
	batches atomic.Int64
	points  atomic.Int64
}

var _ tscout.StickySink = (*tracedSink)(nil)

func (s *tracedSink) WriteBatch(pts []tscout.TrainingPoint) error {
	id := s.tr.begin("archive.write_batch")
	defer s.tr.end(id)
	s.batches.Add(1)
	s.points.Add(int64(len(pts)))
	return s.inner.WriteBatch(pts)
}

func (s *tracedSink) Flush() error {
	id := s.tr.begin("archive.flush")
	defer s.tr.end(id)
	return s.inner.Flush()
}

func (s *tracedSink) Rows() int64 { return s.inner.Rows() }

func (s *tracedSink) StickyErr() error { return s.inner.StickyErr() }

// countingWriter counts the Write calls and bytes the archive writer
// makes to its destination: one Write per sealed segment.
type countingWriter struct {
	w      io.Writer
	writes int64
	bytes  int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.writes++
	c.bytes += int64(len(p))
	return c.w.Write(p)
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// median returns the median of xs (the mean of the middle two for an
// even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
