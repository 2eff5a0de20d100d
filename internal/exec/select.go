package exec

import (
	"fmt"
	"sort"

	"tscout/internal/sim"
	"tscout/internal/sql"
	"tscout/internal/storage"
	"tscout/internal/tscout"
)

func (e *Engine) executeSelect(ctx *Ctx, s *sql.SelectStmt, params []storage.Value) (*Result, error) {
	tbl, err := e.cat.Table(s.From.Name)
	if err != nil {
		return nil, err
	}
	// Fused path (§5.2): a simple scan pipeline executed under one
	// measurement, emitting vectorized features. Virtual tables take the
	// regular path — their scan is already columnar.
	if e.FusePipelines && tbl.Virtual == nil && len(s.Joins) == 0 &&
		len(s.GroupBy) == 0 && len(s.OrderBy) == 0 && !hasAggs(s) {
		return e.executeFusedSelect(ctx, s, params)
	}

	rel := e.newRelation(s.From.Binding(), tbl.Schema())
	preds, deferred, err := compilePreds(s.Where, rel, params)
	if err != nil {
		return nil, err
	}
	ap := planAccess(tbl, preds)
	if tbl.Virtual != nil && len(s.Joins) == 0 && len(deferred) == 0 {
		ap.proj = virtualProjection(s, rel)
	}
	rel.rows = e.runScan(ctx, ap, false).rows

	// Joins: push deferred predicates to the joined table when possible.
	for _, j := range s.Joins {
		rtbl, err := e.cat.Table(j.Table.Name)
		if err != nil {
			return nil, err
		}
		rrel := e.newRelation(j.Table.Binding(), rtbl.Schema())
		rpreds, stillDeferred, err := compilePreds(deferred, rrel, params)
		if err != nil {
			return nil, err
		}
		deferred = stillDeferred
		rrel.rows = e.runScan(ctx, planAccess(rtbl, rpreds), false).rows
		rel, err = e.hashJoin(ctx, rel, rrel, j)
		if err != nil {
			return nil, err
		}
	}

	// Post-join filter for predicates that needed the combined relation.
	if len(deferred) > 0 {
		preds, still, err := compilePreds(deferred, rel, params)
		if err != nil {
			return nil, err
		}
		if len(still) > 0 {
			return nil, fmt.Errorf("exec: cannot resolve predicate on %s", still[0].Col)
		}
		m := e.ouBegin(ctx, OUFilter)
		in := len(rel.rows)
		kept := rel.rows[:0]
		for _, row := range rel.rows {
			ok := true
			for _, p := range preds {
				if !p.eval(row) {
					ok = false
					break
				}
			}
			if ok {
				kept = append(kept, row)
			}
		}
		rel.rows = kept
		ctx.Task.Charge(sim.Work{
			Instructions: 40 + float64(in)*14*float64(len(preds)),
			BytesTouched: float64(in) * 16 * float64(len(preds)),
		})
		ouEnd(ctx, m)
		ouFeatures(ctx, m, 0, uint64(in), uint64(len(preds)), uint64(len(rel.rows)))
	}

	// Aggregation / projection.
	var res *Result
	if hasAggs(s) || len(s.GroupBy) > 0 {
		res, err = e.aggregate(ctx, rel, s)
	} else {
		res, err = project(rel, s)
	}
	if err != nil {
		return nil, err
	}

	if len(s.OrderBy) > 0 {
		if err := e.sortResult(ctx, res, s.OrderBy, rel, s); err != nil {
			return nil, err
		}
	}
	if s.Limit >= 0 && len(res.Rows) > s.Limit {
		res.Rows = res.Rows[:s.Limit]
	}

	e.emitOutput(ctx, res)
	return res, nil
}

// virtualProjection lists the schema columns a single-table select needs
// from a virtual scan, or nil (read everything) when a star or an
// unresolvable reference makes the set unknowable.
func virtualProjection(s *sql.SelectStmt, rel *relation) []int {
	var cols []int
	seen := make(map[int]bool)
	add := func(c sql.ColRef) bool {
		idx, err := rel.resolve(c)
		if err != nil {
			return false
		}
		if !seen[idx] {
			seen[idx] = true
			cols = append(cols, idx)
		}
		return true
	}
	for _, x := range s.Exprs {
		if x.Star {
			return nil
		}
		if x.Agg == sql.AggCount && x.Col.Name == "" {
			continue // COUNT(*) reads no column
		}
		if !add(x.Col) {
			return nil
		}
	}
	for _, g := range s.GroupBy {
		if !add(g) {
			return nil
		}
	}
	for _, k := range s.OrderBy {
		if !add(k.Col) {
			return nil
		}
	}
	return cols
}

func hasAggs(s *sql.SelectStmt) bool {
	for _, x := range s.Exprs {
		if x.Agg != sql.AggNone {
			return true
		}
	}
	return false
}

// hashJoin joins left and right on the join clause's equality columns.
func (e *Engine) hashJoin(ctx *Ctx, left, right *relation, j sql.JoinClause) (*relation, error) {
	out := concatRelations(left, right)
	// Resolve which side each join column belongs to.
	lcol, lerr := left.resolve(j.LeftCol)
	rcol, rerr := right.resolve(j.RightCol)
	if lerr != nil || rerr != nil {
		// The ON clause may name them in the other order.
		lcol, lerr = left.resolve(j.RightCol)
		rcol, rerr = right.resolve(j.LeftCol)
		if lerr != nil || rerr != nil {
			return nil, fmt.Errorf("exec: join columns %s / %s not resolvable", j.LeftCol, j.RightCol)
		}
	}

	m := e.ouBegin(ctx, OUHashJoin)
	// Build on the right side.
	build := make(map[string][]storage.Row, len(right.rows))
	var buildBytes int64
	for _, row := range right.rows {
		k := row[rcol].String()
		build[k] = append(build[k], row)
		buildBytes += row.Size() + 16
	}
	matches := 0
	for _, lrow := range left.rows {
		for _, rrow := range build[lrow[lcol].String()] {
			joined := make(storage.Row, 0, len(lrow)+len(rrow))
			joined = append(joined, lrow...)
			joined = append(joined, rrow...)
			out.rows = append(out.rows, joined)
			matches++
		}
	}
	work := sim.Work{
		Instructions:         300 + 48*float64(len(right.rows)) + 40*float64(len(left.rows)) + 60*float64(matches),
		BytesTouched:         float64(buildBytes) + float64(len(left.rows))*24 + float64(matches)*float64(out.width),
		WorkingSetBytes:      float64(buildBytes),
		RandomAccessFraction: 0.7,
		AllocBytes:           buildBytes + int64(matches)*out.width,
	}
	ctx.Task.Charge(work)
	ouEnd(ctx, m)
	ouFeatures(ctx, m, work.AllocBytes,
		uint64(len(right.rows)), uint64(len(left.rows)), uint64(matches), uint64(out.width))
	return out, nil
}

// project evaluates a non-aggregating select list.
func project(rel *relation, s *sql.SelectStmt) (*Result, error) {
	cols := make([]string, 0, len(s.Exprs))
	idxs := make([]int, 0, len(s.Exprs))
	for _, x := range s.Exprs {
		if x.Star {
			for i, qc := range rel.cols {
				cols = append(cols, qc)
				idxs = append(idxs, i)
			}
			continue
		}
		i, err := rel.resolve(x.Col)
		if err != nil {
			return nil, err
		}
		cols = append(cols, x.Col.String())
		idxs = append(idxs, i)
	}
	res := &Result{Cols: cols}
	full := len(idxs) == len(rel.cols)
	if full {
		ordered := true
		for i, idx := range idxs {
			if i != idx {
				ordered = false
				break
			}
		}
		if ordered {
			res.Rows = rel.rows
			return res, nil
		}
	}
	if len(rel.rows) == 0 {
		return res, nil
	}
	// One backing array holds every projected row.
	n := len(idxs)
	vals := make([]storage.Value, len(rel.rows)*n)
	res.Rows = make([]storage.Row, len(rel.rows))
	for r, row := range rel.rows {
		out := storage.Row(vals[r*n : (r+1)*n : (r+1)*n])
		for i, idx := range idxs {
			out[i] = row[idx]
		}
		res.Rows[r] = out
	}
	return res, nil
}

// aggregate groups rel by the GROUP BY keys and evaluates aggregates.
func (e *Engine) aggregate(ctx *Ctx, rel *relation, s *sql.SelectStmt) (*Result, error) {
	type aggState struct {
		key    []storage.Value
		count  int64
		sums   []float64
		mins   []storage.Value
		maxs   []storage.Value
		counts []int64
	}
	groupIdxs := make([]int, len(s.GroupBy))
	for i, g := range s.GroupBy {
		idx, err := rel.resolve(g)
		if err != nil {
			return nil, err
		}
		groupIdxs[i] = idx
	}
	// Column index per aggregate expression (-1 for COUNT(*)).
	aggIdxs := make([]int, len(s.Exprs))
	nAggs := 0
	for i, x := range s.Exprs {
		aggIdxs[i] = -1
		if x.Agg == sql.AggNone {
			// Non-aggregated outputs must be grouping keys.
			idx, err := rel.resolve(x.Col)
			if err != nil {
				return nil, err
			}
			found := false
			for _, g := range groupIdxs {
				if g == idx {
					found = true
					break
				}
			}
			if !found {
				return nil, fmt.Errorf("exec: column %s must appear in GROUP BY", x.Col)
			}
			aggIdxs[i] = idx
			continue
		}
		nAggs++
		if x.Agg != sql.AggCount || x.Col.Name != "" {
			idx, err := rel.resolve(x.Col)
			if err != nil {
				return nil, err
			}
			aggIdxs[i] = idx
		}
	}

	m := e.ouBegin(ctx, OUAggregate)
	groups := make(map[string]*aggState)
	var order []string
	for _, row := range rel.rows {
		kb := make([]byte, 0, 32)
		key := make([]storage.Value, len(groupIdxs))
		for i, g := range groupIdxs {
			key[i] = row[g]
			kb = append(kb, row[g].String()...)
			kb = append(kb, 0)
		}
		ks := string(kb)
		st, ok := groups[ks]
		if !ok {
			st = &aggState{
				key:    key,
				sums:   make([]float64, len(s.Exprs)),
				mins:   make([]storage.Value, len(s.Exprs)),
				maxs:   make([]storage.Value, len(s.Exprs)),
				counts: make([]int64, len(s.Exprs)),
			}
			groups[ks] = st
			order = append(order, ks)
		}
		st.count++
		for i, x := range s.Exprs {
			if x.Agg == sql.AggNone {
				continue
			}
			if aggIdxs[i] < 0 { // COUNT(*)
				continue
			}
			v := row[aggIdxs[i]]
			if v.IsNull() {
				continue
			}
			st.counts[i]++
			st.sums[i] += v.AsFloat()
			if st.counts[i] == 1 || v.Compare(st.mins[i]) < 0 {
				st.mins[i] = v
			}
			if st.counts[i] == 1 || v.Compare(st.maxs[i]) > 0 {
				st.maxs[i] = v
			}
		}
	}
	// With no GROUP BY, aggregates over the empty input still emit a row.
	if len(s.GroupBy) == 0 && len(order) == 0 {
		groups[""] = &aggState{
			sums:   make([]float64, len(s.Exprs)),
			mins:   make([]storage.Value, len(s.Exprs)),
			maxs:   make([]storage.Value, len(s.Exprs)),
			counts: make([]int64, len(s.Exprs)),
		}
		order = append(order, "")
	}

	res := &Result{}
	for _, x := range s.Exprs {
		res.Cols = append(res.Cols, selectColName(x))
	}
	for _, ks := range order {
		st := groups[ks]
		row := make(storage.Row, len(s.Exprs))
		keyPos := 0
		_ = keyPos
		for i, x := range s.Exprs {
			switch x.Agg {
			case sql.AggNone:
				// Value of the grouping key in this group.
				for gi, g := range groupIdxs {
					if g == aggIdxs[i] {
						row[i] = st.key[gi]
						break
					}
				}
			case sql.AggCount:
				if aggIdxs[i] < 0 {
					row[i] = storage.NewInt(st.count)
				} else {
					row[i] = storage.NewInt(st.counts[i])
				}
			case sql.AggSum:
				row[i] = storage.NewFloat(st.sums[i])
			case sql.AggAvg:
				if st.counts[i] == 0 {
					row[i] = storage.Null()
				} else {
					row[i] = storage.NewFloat(st.sums[i] / float64(st.counts[i]))
				}
			case sql.AggMin:
				if st.counts[i] == 0 {
					row[i] = storage.Null()
				} else {
					row[i] = st.mins[i]
				}
			case sql.AggMax:
				if st.counts[i] == 0 {
					row[i] = storage.Null()
				} else {
					row[i] = st.maxs[i]
				}
			}
		}
		res.Rows = append(res.Rows, row)
	}

	work := sim.Work{
		Instructions:         200 + 34*float64(len(rel.rows))*float64(nAggs+1) + 52*float64(len(order)),
		BytesTouched:         float64(len(rel.rows)) * 24 * float64(nAggs+1),
		WorkingSetBytes:      float64(len(order)) * 96,
		RandomAccessFraction: 0.5,
		AllocBytes:           int64(len(order)) * 96,
	}
	ctx.Task.Charge(work)
	ouEnd(ctx, m)
	ouFeatures(ctx, m, work.AllocBytes,
		uint64(len(rel.rows)), uint64(len(order)), uint64(nAggs))
	return res, nil
}

func selectColName(x sql.SelectExpr) string {
	switch x.Agg {
	case sql.AggNone:
		return x.Col.String()
	case sql.AggCount:
		if x.Col.Name == "" {
			return "count(*)"
		}
		return "count(" + x.Col.String() + ")"
	case sql.AggSum:
		return "sum(" + x.Col.String() + ")"
	case sql.AggAvg:
		return "avg(" + x.Col.String() + ")"
	case sql.AggMin:
		return "min(" + x.Col.String() + ")"
	case sql.AggMax:
		return "max(" + x.Col.String() + ")"
	}
	return "?"
}

// sortResult orders the result rows by the ORDER BY keys (resolved
// against the result columns first, then the source relation names).
func (e *Engine) sortResult(ctx *Ctx, res *Result, keys []sql.OrderKey, rel *relation, s *sql.SelectStmt) error {
	type sortKey struct {
		col  int
		desc bool
	}
	sks := make([]sortKey, len(keys))
	for i, k := range keys {
		pos := -1
		for ci, cn := range res.Cols {
			if cn == k.Col.String() || bareName(cn) == k.Col.Name {
				pos = ci
				break
			}
		}
		if pos < 0 {
			return fmt.Errorf("exec: ORDER BY column %s not in select list", k.Col)
		}
		sks[i] = sortKey{col: pos, desc: k.Desc}
	}
	m := e.ouBegin(ctx, OUSort)
	sort.SliceStable(res.Rows, func(a, b int) bool {
		for _, k := range sks {
			c := res.Rows[a][k.col].Compare(res.Rows[b][k.col])
			if c == 0 {
				continue
			}
			if k.desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	n := float64(len(res.Rows))
	logn := 1.0
	for x := n; x > 1; x /= 2 {
		logn++
	}
	var width int64 = 16
	if len(res.Rows) > 0 {
		width = res.Rows[0].Size()
	}
	work := sim.Work{
		Instructions:         150 + 30*n*logn*float64(len(sks)),
		BytesTouched:         n * float64(width) * logn,
		WorkingSetBytes:      n * float64(width),
		RandomAccessFraction: 0.4,
	}
	ctx.Task.Charge(work)
	ouEnd(ctx, m)
	ouFeatures(ctx, m, 0, uint64(len(res.Rows)), uint64(width), uint64(len(sks)))
	return nil
}

// emitOutput runs the output-buffer OU for a result.
func (e *Engine) emitOutput(ctx *Ctx, res *Result) {
	m := e.ouBegin(ctx, OUOutput)
	bytes := res.Bytes()
	ctx.Task.Charge(sim.Work{
		Instructions: 90 + 0.8*float64(bytes) + 20*float64(len(res.Rows)),
		BytesTouched: float64(bytes),
		AllocBytes:   bytes,
	})
	ouEnd(ctx, m)
	ouFeatures(ctx, m, bytes, uint64(len(res.Rows)), uint64(bytes))
}

// executeFusedSelect runs scan(+filter)+output as one fused pipeline with
// a single metrics measurement and a vectorized FEATURES record (§5.2).
func (e *Engine) executeFusedSelect(ctx *Ctx, s *sql.SelectStmt, params []storage.Value) (*Result, error) {
	tbl, err := e.cat.Table(s.From.Name)
	if err != nil {
		return nil, err
	}
	rel := e.newRelation(s.From.Binding(), tbl.Heap.Schema())
	preds, deferred, err := compilePreds(s.Where, rel, params)
	if err != nil {
		return nil, err
	}
	if len(deferred) > 0 {
		return nil, fmt.Errorf("exec: cannot resolve predicate on %s", deferred[0].Col)
	}
	ap := planAccess(tbl, preds)

	pm := e.markers[OUFusedPipeline]
	if pm != nil {
		pm.Begin(ctx.Task)
	}
	// Run the pipeline WITHOUT per-OU markers: one measurement covers it.
	saved := e.markers
	e.markers = map[tscout.OUID]*tscout.Marker{}
	rel.rows = e.runScan(ctx, ap, false).rows
	res, perr := project(rel, s)
	if perr == nil {
		if s.Limit >= 0 && len(res.Rows) > s.Limit {
			res.Rows = res.Rows[:s.Limit]
		}
		e.emitOutput(ctx, res)
	}
	e.markers = saved
	if perr != nil {
		if pm != nil {
			pm.End(ctx.Task)
			pm.Features(ctx.Task, 0, 0)
		}
		return nil, perr
	}
	if pm != nil {
		pm.End(ctx.Task)
		scanOU := OUSeqScan
		scanFeat := []uint64{uint64(tbl.Heap.NumSlots()), uint64(tbl.Heap.Schema().RowWidth())}
		if ap.index != nil {
			scanOU = OUIndexScan
			scanFeat = []uint64{1, uint64(ap.index.Height()), uint64(len(rel.rows))}
		}
		parts := []tscout.FusedPart{
			{OU: scanOU, Features: scanFeat},
			{OU: OUOutput, Features: []uint64{uint64(len(res.Rows)), uint64(res.Bytes())}},
		}
		if len(ap.residual) > 0 {
			parts = append(parts, tscout.FusedPart{
				OU: OUFilter, Features: []uint64{uint64(len(rel.rows)), uint64(len(ap.residual))},
			})
		}
		if err := pm.FeaturesVector(ctx.Task, res.Bytes(), parts); err != nil {
			return nil, err
		}
	}
	return res, nil
}
