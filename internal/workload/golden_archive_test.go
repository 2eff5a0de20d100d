package workload

import (
	"bytes"
	"testing"

	"tscout/internal/archive"
	"tscout/internal/dbms"
	"tscout/internal/wal"
)

// TestSegmentSinkGoldenFingerprint re-runs the canonical single-CPU golden
// workload with a caller-supplied columnar segment writer as the Processor
// sink (in place of the server's default in-memory archive), then
// fingerprints the points read back FROM THOSE SEGMENTS. The hash must
// equal the recorded golden value: an external archive sink neither
// perturbs the run nor loses or reorders a single point through
// encode → seal → decode.
func TestSegmentSinkGoldenFingerprint(t *testing.T) {
	var buf bytes.Buffer
	aw := archive.NewWriter(&buf)
	srv, err := dbms.NewServer(dbms.Config{
		Seed: 77, NoiseSigma: 0.03, Instrument: true,
		Sink: aw,
		WAL:  wal.Config{GroupSize: 8, FlushIntervalNS: 100_000},
	})
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	gen := &TPCC{Warehouses: 1, CustomersPerDistrict: 10, Items: 100, InitialOrdersPerDistrict: 10}
	if err := gen.Setup(srv); err != nil {
		t.Fatalf("setup: %v", err)
	}
	srv.TS.Sampler().SetAllRates(100)
	res, err := Run(srv, gen, Config{Terminals: 4, Transactions: 300, Seed: 77})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := aw.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := archive.NewReader(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	pts, err := r.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != goldenSingleCPUPoints {
		t.Fatalf("segment archive holds %d points, want %d", len(pts), goldenSingleCPUPoints)
	}
	if got := goldenFingerprint(res, pts); got != goldenSingleCPUHash {
		t.Fatalf("segment-sink golden fingerprint = %#x, want %#x", got, goldenSingleCPUHash)
	}
}
