package dbms_test

import (
	"reflect"
	"strconv"
	"strings"
	"testing"

	"tscout/internal/dbms"
	"tscout/internal/network"
	"tscout/internal/sql"
	"tscout/internal/wal"
	"tscout/internal/workload"
)

func newWorkloadServer(t *testing.T) *dbms.Server {
	t.Helper()
	srv, err := dbms.NewServer(dbms.Config{
		Seed: 1, WAL: wal.Config{GroupSize: 8, FlushIntervalNS: 100_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestStatementCacheASTImmutable runs every workload's transaction mix on
// one server, then checks that each cached statement still equals a fresh
// parse of its text: no execution wrote to a shared AST.
func TestStatementCacheASTImmutable(t *testing.T) {
	srv := newWorkloadServer(t)
	tpcc := &workload.TPCC{Warehouses: 1, CustomersPerDistrict: 10, Items: 100, InitialOrdersPerDistrict: 10}
	runs := []struct {
		gen   workload.Generator
		setup bool
		cfg   workload.Config
	}{
		{tpcc, true, workload.Config{}},
		// CH-benCHmark runs on the TPC-C tables; EXPLAIN-based collection
		// wraps each cached statement in an ExplainStmt.
		{&workload.CHBench{TPCC: *tpcc}, false, workload.Config{ExternalCollect: true}},
		{&workload.SmallBank{Customers: 100}, true, workload.Config{}},
		{&workload.TATP{Subscribers: 200}, true, workload.Config{}},
		{&workload.YCSB{Records: 200}, true, workload.Config{}},
	}
	for _, r := range runs {
		if r.setup {
			if err := r.gen.Setup(srv); err != nil {
				t.Fatalf("%s setup: %v", r.gen.Name(), err)
			}
		}
		cfg := r.cfg
		cfg.Terminals, cfg.Transactions, cfg.Seed = 2, 300, 3
		res, err := workload.Run(srv, r.gen, cfg)
		if err != nil {
			t.Fatalf("%s: %v", r.gen.Name(), err)
		}
		if res.Completed == 0 {
			t.Fatalf("%s completed no transactions", r.gen.Name())
		}
	}

	cached := srv.CachedStatements()
	if len(cached) < 30 {
		t.Fatalf("only %d texts cached; the workloads did not run", len(cached))
	}
	for text, st := range cached {
		fresh, err := sql.Parse(text)
		if err != nil {
			t.Fatalf("cached text no longer parses: %q: %v", text, err)
		}
		if !reflect.DeepEqual(st, fresh) {
			t.Errorf("cached statement for %q was modified:\n got  %#v\n want %#v", text, st, fresh)
		}
	}
}

// TestStatementCacheBounded: TATP builds some statements with literal
// subscriber numbers, so a long run sends more distinct texts than the
// cache holds. The cache stops at its cap, and texts it no longer admits
// still execute correctly.
func TestStatementCacheBounded(t *testing.T) {
	srv := newWorkloadServer(t)
	gen := &workload.TATP{Subscribers: 2000}
	if err := gen.Setup(srv); err != nil {
		t.Fatal(err)
	}
	if _, err := workload.Run(srv, gen, workload.Config{Terminals: 2, Transactions: 12000, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	if n := len(srv.CachedStatements()); n != dbms.StmtCacheCap {
		t.Fatalf("cache holds %d texts after the run, want exactly the cap %d", n, dbms.StmtCacheCap)
	}

	se := srv.NewSession()
	for sid := int64(1); sid <= 2000; sid += 97 {
		nbr := "nbr" + strconv.FormatInt(sid, 10)
		nbr += strings.Repeat("x", 15-len(nbr))
		res, err := se.Execute("SELECT s_id FROM subscriber WHERE sub_nbr = " + network.QuoteString(nbr))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].AsInt() != sid {
			t.Fatalf("lookup of %s: %+v", nbr, res.Rows)
		}
	}
	if n := len(srv.CachedStatements()); n != dbms.StmtCacheCap {
		t.Fatalf("cache grew past its cap to %d", n)
	}
}
