package exec

import (
	"fmt"

	"tscout/internal/sim"
	"tscout/internal/sql"
	"tscout/internal/storage"
)

// coerce converts numeric values to the column's kind (SQL's implicit
// numeric casts); non-numeric mismatches are left for schema validation.
func coerce(v storage.Value, kind storage.Kind) storage.Value {
	switch {
	case v.Kind == storage.KindInt && kind == storage.KindFloat:
		return storage.NewFloat(float64(v.Int))
	case v.Kind == storage.KindFloat && kind == storage.KindInt:
		return storage.NewInt(int64(v.Float))
	}
	return v
}

func (e *Engine) executeInsert(ctx *Ctx, s *sql.InsertStmt, params []storage.Value) (*Result, error) {
	tbl, err := e.cat.Table(s.Table)
	if err != nil {
		return nil, err
	}
	if tbl.Virtual != nil {
		return nil, fmt.Errorf("exec: table %q is a read-only virtual table", s.Table)
	}
	schema := tbl.Heap.Schema()

	// Map statement columns to schema positions.
	positions := make([]int, 0, schema.NumColumns())
	if len(s.Columns) == 0 {
		for i := 0; i < schema.NumColumns(); i++ {
			positions = append(positions, i)
		}
	} else {
		for _, c := range s.Columns {
			p := schema.ColumnIndex(c)
			if p < 0 {
				return nil, fmt.Errorf("exec: table %q has no column %q", s.Table, c)
			}
			positions = append(positions, p)
		}
	}

	m := e.ouBegin(ctx, OUInsert)
	var bytes int64
	indexWork := 0
	for _, exprs := range s.Rows {
		if len(exprs) != len(positions) {
			ouEnd(ctx, m)
			ouFeatures(ctx, m, 0, 0, 0, 0)
			return nil, fmt.Errorf("exec: INSERT has %d values for %d columns", len(exprs), len(positions))
		}
		row := make(storage.Row, schema.NumColumns())
		for i, ex := range exprs {
			v, err := evalExpr(ex, nil, nil, params)
			if err != nil {
				ouEnd(ctx, m)
				ouFeatures(ctx, m, 0, 0, 0, 0)
				return nil, err
			}
			row[positions[i]] = coerce(v, schema.Column(positions[i]).Kind)
		}
		tid, err := ctx.Txn.Insert(tbl.Heap, row)
		if err != nil {
			ouEnd(ctx, m)
			ouFeatures(ctx, m, 0, 0, 0, 0)
			return nil, err
		}
		for _, ix := range tbl.Indexes {
			ix.Insert(ix.KeyFor(row), tid)
			indexWork += ix.Height()
		}
		bytes += row.Size()
	}
	n := len(s.Rows)
	work := sim.Work{
		Instructions:         160 + 110*float64(n) + 1.1*float64(bytes) + 70*float64(indexWork),
		BytesTouched:         float64(bytes) + 64*float64(indexWork),
		WorkingSetBytes:      float64(bytes) + 8192,
		RandomAccessFraction: 0.6,
		AllocBytes:           bytes + int64(n)*48,
	}
	ctx.Task.Charge(work)
	ouEnd(ctx, m)
	ouFeatures(ctx, m, work.AllocBytes, uint64(n), uint64(bytes), uint64(len(tbl.Indexes)))
	return &Result{Affected: n}, nil
}

func (e *Engine) executeUpdate(ctx *Ctx, s *sql.UpdateStmt, params []storage.Value) (*Result, error) {
	tbl, err := e.cat.Table(s.Table)
	if err != nil {
		return nil, err
	}
	if tbl.Virtual != nil {
		return nil, fmt.Errorf("exec: table %q is a read-only virtual table", s.Table)
	}
	schema := tbl.Heap.Schema()
	rel := e.newRelation(s.Table, schema)
	preds, deferred, err := compilePreds(s.Where, rel, params)
	if err != nil {
		return nil, err
	}
	if len(deferred) > 0 {
		return nil, fmt.Errorf("exec: cannot resolve predicate on %s", deferred[0].Col)
	}
	setCols := make([]int, len(s.Sets))
	for i, set := range s.Sets {
		p := schema.ColumnIndex(set.Col)
		if p < 0 {
			return nil, fmt.Errorf("exec: table %q has no column %q", s.Table, set.Col)
		}
		setCols[i] = p
	}

	matches := e.runScan(ctx, planAccess(tbl, preds), true)

	m := e.ouBegin(ctx, OUUpdate)
	var bytes int64
	indexWork := 0
	for mi, row := range matches.rows {
		tid := matches.tids[mi]
		newRow := row.Clone()
		for i, set := range s.Sets {
			v, err := evalExpr(set.Val, row, rel, params)
			if err != nil {
				ouEnd(ctx, m)
				ouFeatures(ctx, m, 0, 0, 0, 0)
				return nil, err
			}
			newRow[setCols[i]] = coerce(v, schema.Column(setCols[i]).Kind)
		}
		if err := ctx.Txn.Update(tbl.Heap, tid, newRow); err != nil {
			ouEnd(ctx, m)
			ouFeatures(ctx, m, 0, 0, 0, 0)
			return nil, err
		}
		// Index maintenance only when a key column changed. The old-key
		// entry stays for older snapshots (lazy cleanup under MVCC);
		// scans re-check predicates so it cannot produce wrong matches.
		for _, ix := range tbl.Indexes {
			oldKey, newKey := ix.KeyFor(row), ix.KeyFor(newRow)
			if oldKey != newKey {
				ix.Insert(newKey, tid)
				indexWork += ix.Height()
			}
		}
		bytes += newRow.Size()
	}
	n := len(matches.rows)
	work := sim.Work{
		Instructions:         150 + 130*float64(n) + 0.9*float64(bytes) + 70*float64(indexWork),
		BytesTouched:         2*float64(bytes) + 64*float64(indexWork),
		WorkingSetBytes:      float64(bytes) + 8192,
		RandomAccessFraction: 0.6,
		AllocBytes:           bytes,
	}
	ctx.Task.Charge(work)
	ouEnd(ctx, m)
	ouFeatures(ctx, m, work.AllocBytes, uint64(n), uint64(bytes), uint64(len(tbl.Indexes)))
	return &Result{Affected: n}, nil
}

func (e *Engine) executeDelete(ctx *Ctx, s *sql.DeleteStmt, params []storage.Value) (*Result, error) {
	tbl, err := e.cat.Table(s.Table)
	if err != nil {
		return nil, err
	}
	if tbl.Virtual != nil {
		return nil, fmt.Errorf("exec: table %q is a read-only virtual table", s.Table)
	}
	rel := e.newRelation(s.Table, tbl.Schema())
	preds, deferred, err := compilePreds(s.Where, rel, params)
	if err != nil {
		return nil, err
	}
	if len(deferred) > 0 {
		return nil, fmt.Errorf("exec: cannot resolve predicate on %s", deferred[0].Col)
	}
	matches := e.runScan(ctx, planAccess(tbl, preds), true)

	m := e.ouBegin(ctx, OUDelete)
	indexWork := 0
	for _, tid := range matches.tids {
		if err := ctx.Txn.Delete(tbl.Heap, tid); err != nil {
			ouEnd(ctx, m)
			ouFeatures(ctx, m, 0, 0, 0)
			return nil, err
		}
		// Index entries stay: the tombstone version filters probes, and
		// older snapshots still reach the pre-delete version through them.
		indexWork += len(tbl.Indexes)
	}
	n := len(matches.tids)
	work := sim.Work{
		Instructions:         130 + 90*float64(n) + 70*float64(indexWork),
		BytesTouched:         float64(n)*48 + 64*float64(indexWork),
		RandomAccessFraction: 0.6,
	}
	ctx.Task.Charge(work)
	ouEnd(ctx, m)
	ouFeatures(ctx, m, 0, uint64(n), uint64(len(tbl.Indexes)))
	return &Result{Affected: n}, nil
}
