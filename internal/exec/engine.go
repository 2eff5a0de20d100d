// Package exec implements the DBMS's execution engine: a rule-based
// planner (index point/prefix access when the predicates cover an index,
// sequential scan otherwise) and row-materialized operators. Every
// operator is a TScout operating unit with the feature set MB2-style
// behavior models expect (tuple counts, widths, probe depths), and charges
// the simulated CPU for the data volumes it actually processes.
package exec

import (
	"fmt"
	"sync"

	"tscout/internal/catalog"
	"tscout/internal/kernel"
	"tscout/internal/sql"
	"tscout/internal/storage"
	"tscout/internal/tscout"
	"tscout/internal/txn"
)

// Execution-engine OU identifiers.
const (
	OUSeqScan tscout.OUID = iota + 1
	OUIndexScan
	OUFilter
	OUHashJoin
	OUAggregate
	OUSort
	OUInsert
	OUUpdate
	OUDelete
	OUOutput
	OUFusedPipeline
)

// Engine executes SQL statements against a catalog.
type Engine struct {
	cat     *catalog.Catalog
	ts      *tscout.TScout
	markers map[tscout.OUID]*tscout.Marker
	// FusePipelines executes simple scan->filter->output pipelines under a
	// single measurement with vectorized features (paper §5.2), as a
	// JIT-compiling engine would.
	FusePipelines bool

	bindMu   sync.Mutex
	bindings map[bindKey]*binding // guarded by bindMu
}

// New creates an engine. ts may be nil for an uninstrumented DBMS;
// otherwise the engine registers its OUs (call before ts.Deploy).
func New(cat *catalog.Catalog, ts *tscout.TScout) (*Engine, error) {
	e := &Engine{
		cat: cat, ts: ts,
		markers:  make(map[tscout.OUID]*tscout.Marker),
		bindings: make(map[bindKey]*binding),
	}
	if ts == nil {
		return e, nil
	}
	defs := []struct {
		id       tscout.OUID
		name     string
		features []string
	}{
		{OUSeqScan, "seq_scan", []string{"num_rows", "row_width", "num_blocks"}},
		{OUIndexScan, "index_scan", []string{"num_lookups", "tree_height", "num_rows_out", "row_width"}},
		{OUFilter, "filter", []string{"num_rows_in", "num_preds", "num_rows_out"}},
		{OUHashJoin, "hash_join", []string{"build_rows", "probe_rows", "num_matches", "row_width"}},
		{OUAggregate, "aggregate", []string{"num_rows_in", "num_groups", "num_aggs"}},
		{OUSort, "sort", []string{"num_rows", "row_width", "num_keys"}},
		{OUInsert, "insert", []string{"num_rows", "row_bytes", "num_indexes"}},
		{OUUpdate, "update", []string{"num_rows", "row_bytes", "num_indexes"}},
		{OUDelete, "delete", []string{"num_rows", "num_indexes"}},
		{OUOutput, "output", []string{"num_rows", "num_bytes"}},
		{OUFusedPipeline, "fused_pipeline", []string{"num_ous"}},
	}
	for _, d := range defs {
		m, err := ts.RegisterOU(tscout.OUDef{
			ID: d.id, Name: d.name,
			Subsystem: tscout.SubsystemExecutionEngine,
			Features:  d.features,
		}, tscout.ResourceSet{CPU: true, Memory: true, Disk: true})
		if err != nil {
			return nil, err
		}
		e.markers[d.id] = m
	}
	return e, nil
}

// Marker exposes an OU's marker (nil when uninstrumented).
func (e *Engine) Marker(id tscout.OUID) *tscout.Marker { return e.markers[id] }

// Ctx carries one statement's execution context.
type Ctx struct {
	Task *kernel.Task
	Txn  *txn.Txn
}

// Result is a statement's outcome. For DML, Affected counts rows.
type Result struct {
	Cols     []string
	Rows     []storage.Row
	Affected int
}

// Bytes estimates the result's wire size (the output OU's volume).
func (r *Result) Bytes() int64 {
	var n int64 = 16
	for _, row := range r.Rows {
		n += row.Size() + 8
	}
	return n
}

// Execute runs one parsed statement with the given parameter values
// (1-based $n binding). The caller is responsible for the per-query
// TScout sampling event (ts.BeginEvent) and for committing the
// transaction.
func (e *Engine) Execute(ctx *Ctx, stmt sql.Statement, params []storage.Value) (*Result, error) {
	switch s := stmt.(type) {
	case *sql.SelectStmt:
		return e.executeSelect(ctx, s, params)
	case *sql.InsertStmt:
		return e.executeInsert(ctx, s, params)
	case *sql.UpdateStmt:
		return e.executeUpdate(ctx, s, params)
	case *sql.DeleteStmt:
		return e.executeDelete(ctx, s, params)
	case *sql.CreateTableStmt, *sql.CreateIndexStmt:
		return e.executeDDL(stmt)
	case *sql.ExplainStmt:
		return e.executeExplain(ctx, s, params)
	}
	return nil, fmt.Errorf("exec: unsupported statement %T", stmt)
}

// begin/end/features helpers tolerate nil markers (uninstrumented runs).
func (e *Engine) ouBegin(ctx *Ctx, id tscout.OUID) *tscout.Marker {
	m := e.markers[id]
	if m != nil {
		m.Begin(ctx.Task)
	}
	return m
}

func ouEnd(ctx *Ctx, m *tscout.Marker) {
	if m != nil {
		m.End(ctx.Task)
	}
}

func ouFeatures(ctx *Ctx, m *tscout.Marker, alloc int64, feats ...uint64) {
	if m != nil {
		m.Features(ctx.Task, alloc, feats...)
	}
}
