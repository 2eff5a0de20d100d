package runner

import (
	"testing"

	"tscout/internal/dbms"
	"tscout/internal/tscout"
	"tscout/internal/wal"
)

func offlineServer(t *testing.T) *dbms.Server {
	t.Helper()
	srv, err := dbms.NewServer(dbms.Config{
		Seed:       3,
		Instrument: true,
		WAL:        wal.Config{Synchronous: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// archivedPoints reads every training point back from the server's
// archive.
func archivedPoints(t *testing.T, srv *dbms.Server) []tscout.TrainingPoint {
	t.Helper()
	r, err := srv.Archive()
	if err != nil {
		t.Fatal(err)
	}
	pts, err := r.Points()
	if err != nil {
		t.Fatal(err)
	}
	return pts
}

func TestRunAllGeneratesAllSubsystems(t *testing.T) {
	srv := offlineServer(t)
	if err := RunAll(srv, Config{}); err != nil {
		t.Fatal(err)
	}
	pts := archivedPoints(t, srv)
	if len(pts) < 200 {
		t.Fatalf("too little offline data: %d points", len(pts))
	}
	bySub := map[tscout.SubsystemID]int{}
	ous := map[string]bool{}
	for _, p := range pts {
		bySub[p.Subsystem]++
		ous[p.OUName] = true
	}
	for _, sub := range tscout.AllSubsystems {
		if bySub[sub] == 0 {
			t.Fatalf("no runner data for %v: %v", sub, bySub)
		}
	}
	for _, want := range []string{
		"seq_scan", "index_scan", "filter", "hash_join", "aggregate",
		"sort", "insert", "update", "delete", "output",
		"net_read", "net_write", "log_serializer", "disk_writer",
	} {
		if !ous[want] {
			t.Fatalf("runner never exercised OU %s: %v", want, ous)
		}
	}
}

func TestRunAllRequiresInstrumentation(t *testing.T) {
	srv, err := dbms.NewServer(dbms.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := RunAll(srv, Config{}); err == nil {
		t.Fatalf("uninstrumented server must be rejected")
	}
}

func TestRunAllSweepsFeatureSpace(t *testing.T) {
	srv := offlineServer(t)
	if err := RunAll(srv, Config{}); err != nil {
		t.Fatal(err)
	}
	// The seq_scan OU must have been exercised across multiple table
	// sizes (the sweep that makes runner data robust, §2.4).
	sizes := map[uint64]bool{}
	for _, p := range archivedPoints(t, srv) {
		if p.OUName == "seq_scan" && len(p.Features) > 0 {
			sizes[uint64(p.Features[0])] = true
		}
	}
	if len(sizes) < 4 {
		t.Fatalf("scan sweep must cover multiple cardinalities: %v", sizes)
	}
}

func TestOfflineWALBatchesAreSingletons(t *testing.T) {
	srv := offlineServer(t)
	if err := RunAll(srv, Config{}); err != nil {
		t.Fatal(err)
	}
	// Synchronous offline config: every serializer sample is one txn —
	// the exact blind spot §6.5 attributes to offline runners.
	for _, p := range archivedPoints(t, srv) {
		if p.Subsystem == tscout.SubsystemLogSerializer && len(p.Features) >= 3 && p.Features[2] > 1 {
			t.Fatalf("offline flush with %v txns; group commit must not batch", p.Features[2])
		}
	}
}

func TestRunAllIdempotentSetup(t *testing.T) {
	srv := offlineServer(t)
	if err := RunAll(srv, Config{}); err != nil {
		t.Fatal(err)
	}
	// A second pass reuses the tables rather than failing on CREATE.
	if err := RunAll(srv, Config{}); err != nil {
		t.Fatal(err)
	}
}
