package exec

import (
	"tscout/internal/catalog"
	"tscout/internal/sim"
	"tscout/internal/sql"
	"tscout/internal/storage"
)

// accessPath is the planner's choice for reading one table.
type accessPath struct {
	table *catalog.Table
	index *catalog.Index
	// exact means a full-key point probe; otherwise keyLo..keyHi is a
	// leading-prefix range. index == nil means sequential scan.
	exact        bool
	key          int64
	keyLo, keyHi int64
	// residual predicates to apply after the access path.
	residual []compiledPred
	// proj lists the schema columns the query reads (virtual tables only);
	// nil means all. The scan unions in residual columns itself.
	proj []int
}

// planAccess picks the cheapest access path for preds on tbl: a full-key
// index probe, then a leading-prefix B+Tree range, then a sequential scan.
func planAccess(tbl *catalog.Table, preds []compiledPred) accessPath {
	var best accessPath
	best.table = tbl
	bestScore := 0 // 0 = seqscan, 1 = prefix, 2 = full, 3 = full unique
	for _, ix := range tbl.Indexes {
		covered := 0
		for _, kc := range ix.KeyCols {
			if _, ok := eqValue(preds, kc); !ok {
				break
			}
			covered++
		}
		if covered == 0 {
			continue
		}
		full := covered == len(ix.KeyCols)
		score := 1
		if full {
			score = 2
			if ix.Unique {
				score = 3
			}
		}
		if !full && ix.Kind == catalog.HashKind {
			continue // hash indexes cannot serve prefix ranges
		}
		if score <= bestScore {
			continue
		}
		vals := make([]storage.Value, covered)
		for i := 0; i < covered; i++ {
			vals[i], _ = eqValue(preds, ix.KeyCols[i])
		}
		ap := accessPath{table: tbl, index: ix}
		if full {
			ap.exact = true
			ap.key = ix.KeyForValues(vals)
		} else {
			ap.keyLo, ap.keyHi = ix.PrefixRange(vals)
		}
		// Every predicate stays as a residual re-check: index entries are
		// maintained lazily under MVCC (a key-changing update inserts the
		// new key but leaves the old entry for older snapshots; GC would
		// reclaim it), so a probe can return tuples whose visible version
		// no longer matches the key.
		ap.residual = preds
		best = ap
		bestScore = score
	}
	if bestScore == 0 {
		best.residual = preds
	}
	return best
}

// eqValue returns the value of the first equality predicate on col.
func eqValue(preds []compiledPred, col int) (storage.Value, bool) {
	for _, p := range preds {
		if p.col == col && p.op == sql.OpEq {
			return p.val, true
		}
	}
	return storage.Value{}, false
}

// matches is what a scan produced: the visible rows and, when the caller
// asked for them (DML), their tuple addresses in step with the rows.
type matches struct {
	rows []storage.Row
	tids []storage.TupleID
}

func (m *matches) add(tid storage.TupleID, row storage.Row, withTIDs bool) {
	m.rows = append(m.rows, row)
	if withTIDs {
		m.tids = append(m.tids, tid)
	}
}

// runScan executes the access path as its OU (seq_scan or index_scan)
// followed by a filter OU for residual predicates. It returns the visible
// matches, with their tuple addresses when withTIDs is set.
func (e *Engine) runScan(ctx *Ctx, ap accessPath, withTIDs bool) matches {
	var out matches

	if ap.table.Virtual != nil {
		out.rows = e.runVirtualScan(ctx, ap)
		return e.applyResidual(ctx, ap, out)
	}

	heap := ap.table.Heap
	width := heap.Schema().RowWidth()

	if ap.index == nil {
		m := e.ouBegin(ctx, OUSeqScan)
		slots := 0
		walked := 0
		heap.ScanSlots(func(id storage.TupleID, head *storage.Version) bool {
			slots++
			row, w := ctx.Txn.Read(heap, id)
			walked += w
			if row != nil {
				out.add(id, row, withTIDs)
			}
			return true
		})
		work := sim.Work{
			Instructions:         140 + 36*float64(slots) + 22*float64(walked),
			BytesTouched:         float64(slots)*float64(width) + 24*float64(walked),
			WorkingSetBytes:      float64(heap.DataBytes()),
			RandomAccessFraction: 0.05,
		}
		ctx.Task.Charge(work)
		ouEnd(ctx, m)
		ouFeatures(ctx, m, 0, uint64(slots), uint64(width), uint64(heap.NumBlocks()))
	} else {
		m := e.ouBegin(ctx, OUIndexScan)
		var tids []int64
		lookups := 1
		if ap.exact {
			tids = ap.index.Search(ap.key) // the index's postings, read only
		} else {
			ap.index.RangeSearch(ap.keyLo, ap.keyHi, func(k int64, ts []int64) bool {
				tids = append(tids, ts...)
				return true
			})
			lookups = 1 + len(tids)/8 // leaf-chain hops
		}
		walked := 0
		out.rows = make([]storage.Row, 0, len(tids))
		if withTIDs {
			out.tids = make([]storage.TupleID, 0, len(tids))
		}
		for _, t := range tids {
			row, w := ctx.Txn.Read(heap, storage.TupleID(t))
			walked += w
			if row != nil {
				out.add(storage.TupleID(t), row, withTIDs)
			}
		}
		h := float64(ap.index.Height())
		work := sim.Work{
			Instructions:         180 + 60*h*float64(lookups) + 48*float64(len(tids)) + 22*float64(walked),
			BytesTouched:         64*h*float64(lookups) + float64(len(out.rows))*float64(width),
			WorkingSetBytes:      float64(ap.index.Len())*24 + float64(heap.DataBytes())*0.1,
			RandomAccessFraction: 0.85,
		}
		ctx.Task.Charge(work)
		ouEnd(ctx, m)
		ouFeatures(ctx, m, 0,
			uint64(lookups), uint64(ap.index.Height()), uint64(len(out.rows)), uint64(width))
	}

	return e.applyResidual(ctx, ap, out)
}

// applyResidual runs the filter OU over the scan's matches. Virtual-table
// pushdown is block-granular (zone maps), so even pushed predicates are
// re-checked here — correctness never depends on the source filtering.
func (e *Engine) applyResidual(ctx *Ctx, ap accessPath, out matches) matches {
	if len(ap.residual) == 0 {
		return out
	}
	m := e.ouBegin(ctx, OUFilter)
	in := len(out.rows)
	kept := 0
	for i, row := range out.rows {
		ok := true
		for _, p := range ap.residual {
			if !p.eval(row) {
				ok = false
				break
			}
		}
		if ok {
			out.rows[kept] = row
			if out.tids != nil {
				out.tids[kept] = out.tids[i]
			}
			kept++
		}
	}
	out.rows = out.rows[:kept]
	if out.tids != nil {
		out.tids = out.tids[:kept]
	}
	ctx.Task.Charge(sim.Work{
		Instructions: 40 + float64(in)*14*float64(len(ap.residual)),
		BytesTouched: float64(in) * 16 * float64(len(ap.residual)),
	})
	ouEnd(ctx, m)
	ouFeatures(ctx, m, 0, uint64(in), uint64(len(ap.residual)), uint64(kept))
	return out
}

// runVirtualScan streams a virtual table (e.g. the mounted training
// archive) under the seq_scan OU. The projection is the union of the
// query's needs and the residual predicates' columns; pushdown predicates
// let the source skip whole column blocks via its zone maps.
func (e *Engine) runVirtualScan(ctx *Ctx, ap accessPath) []storage.Row {
	vt := ap.table.Virtual
	schema := vt.Schema()

	proj := ap.proj
	if proj != nil && len(ap.residual) > 0 {
		have := make(map[int]bool, len(proj))
		for _, c := range proj {
			have[c] = true
		}
		for _, p := range ap.residual {
			if !have[p.col] {
				proj = append(proj, p.col)
				have[p.col] = true
			}
		}
	}
	width := schema.RowWidth()
	if proj != nil {
		width = schema.ProjectionWidth(proj)
	}

	push := make([]catalog.VirtualPred, 0, len(ap.residual))
	for _, p := range ap.residual {
		op, ok := virtualOp(p.op)
		if !ok {
			continue
		}
		push = append(push, catalog.VirtualPred{Col: p.col, Op: op, Val: p.val})
	}

	m := e.ouBegin(ctx, OUSeqScan)
	var out []storage.Row
	stats := vt.Scan(proj, push, func(row storage.Row) bool {
		out = append(out, row)
		return true
	})
	blocks := stats.BlocksRead + stats.BlocksSkipped
	work := sim.Work{
		Instructions:         140 + 30*float64(stats.Rows) + 400*float64(blocks),
		BytesTouched:         float64(stats.Rows)*float64(width) + 128*float64(blocks),
		WorkingSetBytes:      float64(stats.Rows) * float64(width),
		RandomAccessFraction: 0.05,
	}
	ctx.Task.Charge(work)
	ouEnd(ctx, m)
	ouFeatures(ctx, m, 0, uint64(stats.Rows), uint64(width), uint64(stats.BlocksRead), uint64(stats.BlocksSkipped))
	return out
}

// virtualOp maps a SQL comparison to the catalog pushdown operator.
func virtualOp(op sql.CmpOp) (catalog.VirtualOp, bool) {
	switch op {
	case sql.OpEq:
		return catalog.VirtualEq, true
	case sql.OpNe:
		return catalog.VirtualNe, true
	case sql.OpLt:
		return catalog.VirtualLt, true
	case sql.OpLe:
		return catalog.VirtualLe, true
	case sql.OpGt:
		return catalog.VirtualGt, true
	case sql.OpGe:
		return catalog.VirtualGe, true
	}
	return 0, false
}

// compilePreds resolves WHERE conjuncts against rel, returning the
// compiled ones and deferring those that reference other relations.
func compilePreds(preds []sql.Predicate, rel *relation, params []storage.Value) (compiled []compiledPred, deferred []sql.Predicate, err error) {
	compiled = make([]compiledPred, 0, len(preds))
	for _, p := range preds {
		idx, rerr := rel.resolve(p.Col)
		if rerr != nil {
			deferred = append(deferred, p)
			continue
		}
		v, verr := evalExpr(p.Val, nil, nil, params)
		if verr != nil {
			return nil, nil, verr
		}
		compiled = append(compiled, compiledPred{col: idx, op: p.Op, val: v})
	}
	// Stable insertion sort by column: a statement has a handful of
	// predicates, and sort.SliceStable would allocate on every call.
	for i := 1; i < len(compiled); i++ {
		for j := i; j > 0 && compiled[j].col < compiled[j-1].col; j-- {
			compiled[j], compiled[j-1] = compiled[j-1], compiled[j]
		}
	}
	return compiled, deferred, nil
}
