package tscout

import (
	"sync"
	"testing"
)

// recordSink is the test suite's Sink. It keeps every delivered point in
// delivery order, standing in for the archive.Writer a deployment attaches
// (this package cannot import the archive), so tests read back what the
// Processor produced from the only place a point lives. It can also be
// told to fail: the first `failures` WriteBatch calls fail, and every call
// fails while down is set.
type recordSink struct {
	mu       sync.Mutex
	failures int             // guarded by mu
	down     bool            // guarded by mu
	calls    int             // guarded by mu — WriteBatch calls, failed ones included
	rejected int             // guarded by mu — points in failed calls
	pts      []TrainingPoint // guarded by mu
}

func (s *recordSink) WriteBatch(pts []TrainingPoint) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls++
	if s.down || s.calls <= s.failures {
		s.rejected += len(pts)
		return errSinkDown
	}
	s.pts = append(s.pts, pts...)
	return nil
}

func (s *recordSink) Flush() error { return nil }

func (s *recordSink) Rows() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int64(len(s.pts))
}

// setDown makes every later WriteBatch call fail (or succeed again).
func (s *recordSink) setDown(down bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.down = down
}

// points returns a copy of every delivered point, in delivery order.
func (s *recordSink) points() []TrainingPoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]TrainingPoint(nil), s.pts...)
}

// pointsFor returns the delivered points of one subsystem, in delivery
// order.
func (s *recordSink) pointsFor(sub SubsystemID) []TrainingPoint {
	var out []TrainingPoint
	for _, tp := range s.points() {
		if tp.Subsystem == sub {
			out = append(out, tp)
		}
	}
	return out
}

// recorded returns the recording sink p delivers to. The deployment must
// have been built with a *recordSink as its ProcessorSink.
func recorded(p *Processor) *recordSink { return p.sink.(*recordSink) }

// checkDelivery asserts the delivery identity once Drain has returned:
// every produced point reached the sink, was dropped after failed
// deliveries, or is still queued for redelivery.
func checkDelivery(tb testing.TB, p *Processor) {
	tb.Helper()
	st := p.Stats()
	if rows := p.sink.Rows(); st.Processed != rows+st.SinkRetryDrops+int64(st.PendingRetry) {
		tb.Fatalf("delivery identity: processed %d != sink rows %d + retry drops %d + pending retry %d",
			st.Processed, rows, st.SinkRetryDrops, st.PendingRetry)
	}
}
