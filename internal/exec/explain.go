package exec

import (
	"fmt"

	"tscout/internal/catalog"
	"tscout/internal/sim"
	"tscout/internal/sql"
	"tscout/internal/storage"
)

// executeExplain implements EXPLAIN [ANALYZE] — the external
// feature-collection path the paper's §2.2/§2.3 argue against for online
// training data. Plain EXPLAIN re-plans the statement (paying the
// re-planning work the paper calls out: "EXPLAIN is meant to be an
// infrequent operation that regenerates the query plan"); EXPLAIN ANALYZE
// additionally executes the statement, annotating the plan with actual row
// counts and elapsed time while discarding the client results.
func (e *Engine) executeExplain(ctx *Ctx, s *sql.ExplainStmt, params []storage.Value) (*Result, error) {
	lines, err := e.explainPlan(ctx, s.Stmt, params)
	if err != nil {
		return nil, err
	}
	// Re-planning the statement is real work external collectors impose.
	ctx.Task.Charge(sim.Work{
		Instructions: 2200 + 300*float64(len(lines)),
		BytesTouched: 512,
		AllocBytes:   int64(64 * len(lines)),
	})

	if s.Analyze {
		start := ctx.Task.Now()
		res, err := e.Execute(ctx, s.Stmt, params)
		if err != nil {
			return nil, err
		}
		elapsed := ctx.Task.Now() - start
		rows := len(res.Rows)
		if len(res.Cols) == 0 {
			rows = res.Affected
		}
		lines = append(lines,
			fmt.Sprintf("Actual rows: %d", rows),
			fmt.Sprintf("Execution time: %.3f ms", float64(elapsed)/1e6))
	}

	out := &Result{Cols: []string{"QUERY PLAN"}}
	for _, l := range lines {
		out.Rows = append(out.Rows, storage.Row{storage.NewString(l)})
	}
	return out, nil
}

// explainPlan renders the physical plan the planner would choose.
func (e *Engine) explainPlan(ctx *Ctx, stmt sql.Statement, params []storage.Value) ([]string, error) {
	switch s := stmt.(type) {
	case *sql.SelectStmt:
		tbl, err := e.cat.Table(s.From.Name)
		if err != nil {
			return nil, err
		}
		rel := e.newRelation(s.From.Binding(), tbl.Schema())
		preds, deferred, err := compilePreds(s.Where, rel, params)
		if err != nil {
			return nil, err
		}
		var lines []string
		lines = append(lines, accessLine(planAccess(tbl, preds), tbl))
		for _, j := range s.Joins {
			rtbl, err := e.cat.Table(j.Table.Name)
			if err != nil {
				return nil, err
			}
			rrel := e.newRelation(j.Table.Binding(), rtbl.Schema())
			rpreds, still, err := compilePreds(deferred, rrel, params)
			if err != nil {
				return nil, err
			}
			deferred = still
			lines = append(lines,
				fmt.Sprintf("Hash Join on %s = %s", j.LeftCol, j.RightCol),
				"  -> "+accessLine(planAccess(rtbl, rpreds), rtbl))
		}
		if len(s.GroupBy) > 0 || hasAggs(s) {
			lines = append(lines, fmt.Sprintf("Aggregate (groups=%d keys)", len(s.GroupBy)))
		}
		if len(s.OrderBy) > 0 {
			lines = append(lines, fmt.Sprintf("Sort (%d keys)", len(s.OrderBy)))
		}
		if s.Limit >= 0 {
			lines = append(lines, fmt.Sprintf("Limit %d", s.Limit))
		}
		return lines, nil
	case *sql.InsertStmt:
		return []string{fmt.Sprintf("Insert into %s (%d rows)", s.Table, len(s.Rows))}, nil
	case *sql.UpdateStmt:
		tbl, err := e.cat.Table(s.Table)
		if err != nil {
			return nil, err
		}
		rel := e.newRelation(s.Table, tbl.Schema())
		preds, _, err := compilePreds(s.Where, rel, params)
		if err != nil {
			return nil, err
		}
		return []string{
			fmt.Sprintf("Update %s (%d assignments)", s.Table, len(s.Sets)),
			"  -> " + accessLine(planAccess(tbl, preds), tbl),
		}, nil
	case *sql.DeleteStmt:
		tbl, err := e.cat.Table(s.Table)
		if err != nil {
			return nil, err
		}
		rel := e.newRelation(s.Table, tbl.Schema())
		preds, _, err := compilePreds(s.Where, rel, params)
		if err != nil {
			return nil, err
		}
		return []string{
			"Delete from " + s.Table,
			"  -> " + accessLine(planAccess(tbl, preds), tbl),
		}, nil
	}
	return nil, fmt.Errorf("exec: cannot explain %T", stmt)
}

func accessLine(ap accessPath, tbl *catalog.Table) string {
	switch {
	case tbl.Virtual != nil:
		return fmt.Sprintf("Virtual Scan on %s (%d pushdown predicates)",
			tbl.Name, len(ap.residual))
	case ap.index == nil:
		return fmt.Sprintf("Seq Scan on %s (rows=%d, %d residual predicates)",
			tbl.Name, ap.table.Heap.NumSlots(), len(ap.residual))
	case ap.exact:
		return fmt.Sprintf("Index Scan using %s on %s (key=%d)",
			ap.index.Name, tbl.Name, ap.key)
	default:
		return fmt.Sprintf("Index Range Scan using %s on %s (prefix range)",
			ap.index.Name, tbl.Name)
	}
}
