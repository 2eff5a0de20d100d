package dbms

import (
	"fmt"
	"sync"
	"testing"

	"tscout/internal/storage"
)

// TestStatementAllocsHalved gates the allocation cost of the statement
// path: a repeated point SELECT through Session.Statement on an
// uninstrumented server. Before the statement cache and the shared column
// bindings it cost 38 allocations per statement; the gate is half of that.
func TestStatementAllocsHalved(t *testing.T) {
	srv := newTestServer(t, false)
	se := srv.NewSession()
	if _, err := se.Execute("INSERT INTO kv VALUES (1, 'one')"); err != nil {
		t.Fatal(err)
	}
	if err := se.BeginTxn(); err != nil {
		t.Fatal(err)
	}
	key := storage.NewInt(1)
	allocs := testing.AllocsPerRun(200, func() {
		res, err := se.Statement("SELECT v FROM kv WHERE k = $1", key)
		if err != nil || len(res.Rows) != 1 {
			t.Fatalf("point select: %v %+v", err, res)
		}
	})
	if allocs > 38/2 {
		t.Fatalf("%.1f allocations per statement, want at most %d", allocs, 38/2)
	}
}

// TestStatementCacheConcurrentParse: goroutines parsing the same and
// distinct texts at once all get a statement and leave a consistent cache.
func TestStatementCacheConcurrentParse(t *testing.T) {
	srv := newTestServer(t, false)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				for _, q := range []string{"SELECT v FROM kv WHERE k = $1", fmt.Sprintf("SELECT v FROM kv WHERE k = %d", i)} {
					if st, err := srv.parse(q); err != nil || st == nil {
						t.Errorf("parse %q: %v", q, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	srv.stmtMu.Lock()
	n := len(srv.stmtCache)
	srv.stmtMu.Unlock()
	if n != 51 {
		t.Fatalf("cache holds %d texts, want 51", n)
	}
}

// TestStatementParseErrorResponds: a malformed statement is answered with
// an error response like any failed statement, so the networking write OU
// runs once for it.
func TestStatementParseErrorResponds(t *testing.T) {
	srv := newTestServer(t, true)
	se := srv.NewSession()
	if err := se.BeginTxn(); err != nil {
		t.Fatal(err)
	}
	if _, err := se.Statement("SELEC nonsense"); err == nil {
		t.Fatalf("parse error must fail")
	}
	writes := 0
	for _, p := range archivedPoints(t, srv) {
		if p.OUName == "net_write" {
			writes++
		}
	}
	if writes != 1 {
		t.Fatalf("malformed statement produced %d net_write points, want 1", writes)
	}
	srv.stmtMu.Lock()
	defer srv.stmtMu.Unlock()
	if _, cached := srv.stmtCache["SELEC nonsense"]; cached {
		t.Fatalf("a parse error must not be cached")
	}
}
