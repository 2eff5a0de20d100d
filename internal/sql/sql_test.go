package sql

import (
	"strings"
	"testing"

	"tscout/internal/storage"
)

func parseSelect(t *testing.T, q string) *SelectStmt {
	t.Helper()
	s, err := Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	sel, ok := s.(*SelectStmt)
	if !ok {
		t.Fatalf("not a select: %T", s)
	}
	return sel
}

func TestParseSimpleSelect(t *testing.T) {
	s := parseSelect(t, "SELECT * FROM ycsb WHERE ycsb_key = $1")
	if !s.Exprs[0].Star || s.From.Name != "ycsb" {
		t.Fatalf("%+v", s)
	}
	if len(s.Where) != 1 || s.Where[0].Op != OpEq || s.Where[0].Col.Name != "ycsb_key" {
		t.Fatalf("where: %+v", s.Where)
	}
	if p, ok := s.Where[0].Val.(Param); !ok || p.N != 1 {
		t.Fatalf("param: %+v", s.Where[0].Val)
	}
}

func TestParseColumnsAndAliases(t *testing.T) {
	s := parseSelect(t, "select c.c_balance, c.c_first from customer as c where c.c_id = 5")
	if s.From.Name != "customer" || s.From.Alias != "c" || s.From.Binding() != "c" {
		t.Fatalf("alias: %+v", s.From)
	}
	if s.Exprs[0].Col.Table != "c" || s.Exprs[0].Col.Name != "c_balance" {
		t.Fatalf("cols: %+v", s.Exprs)
	}
	if s.Exprs[0].Col.String() != "c.c_balance" {
		t.Fatalf("colref string")
	}
	// Bare alias without AS.
	s2 := parseSelect(t, "select x.a from t x where x.a = 1")
	if s2.From.Alias != "x" {
		t.Fatalf("bare alias: %+v", s2.From)
	}
}

func TestParseJoinGroupOrderLimit(t *testing.T) {
	q := `SELECT o.o_id, SUM(ol.ol_amount) FROM orders o
	      JOIN order_line ol ON o.o_id = ol.ol_o_id
	      WHERE o.o_w_id = 1 AND o.o_id >= 10 AND o.o_id <= 20
	      GROUP BY o.o_id ORDER BY o.o_id DESC LIMIT 5`
	s := parseSelect(t, q)
	if len(s.Joins) != 1 || s.Joins[0].Table.Alias != "ol" {
		t.Fatalf("join: %+v", s.Joins)
	}
	if s.Joins[0].LeftCol.String() != "o.o_id" || s.Joins[0].RightCol.String() != "ol.ol_o_id" {
		t.Fatalf("join cols: %+v", s.Joins[0])
	}
	if len(s.Where) != 3 || s.Where[1].Op != OpGe || s.Where[2].Op != OpLe {
		t.Fatalf("where: %+v", s.Where)
	}
	if len(s.GroupBy) != 1 || s.GroupBy[0].Name != "o_id" {
		t.Fatalf("group by: %+v", s.GroupBy)
	}
	if len(s.OrderBy) != 1 || !s.OrderBy[0].Desc {
		t.Fatalf("order by: %+v", s.OrderBy)
	}
	if s.Limit != 5 {
		t.Fatalf("limit: %d", s.Limit)
	}
	if s.Exprs[1].Agg != AggSum || s.Exprs[1].Col.Name != "ol_amount" {
		t.Fatalf("agg: %+v", s.Exprs[1])
	}
}

func TestParseAggregates(t *testing.T) {
	s := parseSelect(t, "SELECT COUNT(*), AVG(bal), MIN(bal), MAX(bal) FROM accounts")
	wants := []AggKind{AggCount, AggAvg, AggMin, AggMax}
	for i, w := range wants {
		if s.Exprs[i].Agg != w {
			t.Fatalf("agg %d: %+v", i, s.Exprs[i])
		}
	}
	if _, err := Parse("SELECT SUM(*) FROM t"); err == nil {
		t.Fatalf("SUM(*) must fail")
	}
}

func TestParseBetween(t *testing.T) {
	s := parseSelect(t, "SELECT * FROM t WHERE a BETWEEN 5 AND 10")
	if len(s.Where) != 2 || s.Where[0].Op != OpGe || s.Where[1].Op != OpLe {
		t.Fatalf("between: %+v", s.Where)
	}
}

func TestParseForUpdateIgnored(t *testing.T) {
	s := parseSelect(t, "SELECT * FROM t WHERE a = 1 FOR UPDATE")
	if len(s.Where) != 1 {
		t.Fatalf("%+v", s)
	}
}

func TestParseInsert(t *testing.T) {
	st, err := Parse("INSERT INTO t (a, b) VALUES (1, 'x'), ($1, $2)")
	if err != nil {
		t.Fatal(err)
	}
	ins := st.(*InsertStmt)
	if ins.Table != "t" || len(ins.Columns) != 2 || len(ins.Rows) != 2 {
		t.Fatalf("%+v", ins)
	}
	if lit, ok := ins.Rows[0][1].(Literal); !ok || lit.Val.Str != "x" {
		t.Fatalf("literal: %+v", ins.Rows[0][1])
	}
	if p, ok := ins.Rows[1][0].(Param); !ok || p.N != 1 {
		t.Fatalf("param: %+v", ins.Rows[1][0])
	}
	// No column list.
	st2, err := Parse("INSERT INTO t VALUES (1, 2.5, NULL)")
	if err != nil {
		t.Fatal(err)
	}
	ins2 := st2.(*InsertStmt)
	if len(ins2.Columns) != 0 || len(ins2.Rows[0]) != 3 {
		t.Fatalf("%+v", ins2)
	}
	if lit := ins2.Rows[0][1].(Literal); lit.Val.Kind != storage.KindFloat {
		t.Fatalf("float literal: %+v", lit)
	}
	if lit := ins2.Rows[0][2].(Literal); !lit.Val.IsNull() {
		t.Fatalf("null literal: %+v", lit)
	}
}

func TestParseUpdate(t *testing.T) {
	st, err := Parse("UPDATE accounts SET balance = balance + $1, touched = 1 WHERE id = $2")
	if err != nil {
		t.Fatal(err)
	}
	up := st.(*UpdateStmt)
	if up.Table != "accounts" || len(up.Sets) != 2 || len(up.Where) != 1 {
		t.Fatalf("%+v", up)
	}
	bin, ok := up.Sets[0].Val.(Binary)
	if !ok || bin.Op != '+' {
		t.Fatalf("binary: %+v", up.Sets[0].Val)
	}
	if col, ok := bin.Left.(ColExpr); !ok || col.Ref.Name != "balance" {
		t.Fatalf("col expr: %+v", bin.Left)
	}
}

func TestParseDelete(t *testing.T) {
	st, err := Parse("DELETE FROM new_order WHERE no_w_id = 1 AND no_o_id = 2")
	if err != nil {
		t.Fatal(err)
	}
	del := st.(*DeleteStmt)
	if del.Table != "new_order" || len(del.Where) != 2 {
		t.Fatalf("%+v", del)
	}
	st2, err := Parse("DELETE FROM t")
	if err != nil || st2.(*DeleteStmt).Where != nil {
		t.Fatalf("bare delete: %v %+v", err, st2)
	}
}

func TestParseNegativeAndParens(t *testing.T) {
	st, err := Parse("UPDATE t SET a = -(b - 3) * 2 WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.(*UpdateStmt).Sets[0].Val.(Binary); !ok {
		t.Fatalf("%+v", st)
	}
}

func TestParseScript(t *testing.T) {
	stmts, err := ParseScript("SELECT * FROM a WHERE x = 1; UPDATE a SET x = 2 WHERE x = 1;")
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 2 {
		t.Fatalf("script: %d", len(stmts))
	}
	if _, err := ParseScript("  ;  "); err == nil {
		t.Fatalf("empty script must fail")
	}

	// A semicolon inside a string literal does not end the statement.
	stmts, err = ParseScript("INSERT INTO h VALUES (1, 'a;b'); SELECT * FROM h")
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 2 {
		t.Fatalf("script with quoted ';': %d statements", len(stmts))
	}
	ins, ok := stmts[0].(*InsertStmt)
	if !ok {
		t.Fatalf("first statement: %T", stmts[0])
	}
	if lit, ok := ins.Rows[0][1].(Literal); !ok || lit.Val.Str != "a;b" {
		t.Fatalf("string literal: %+v", ins.Rows[0][1])
	}
	if _, ok := stmts[1].(*SelectStmt); !ok {
		t.Fatalf("second statement: %T", stmts[1])
	}
}

func TestParseComments(t *testing.T) {
	s := parseSelect(t, "SELECT * FROM t -- trailing comment\n WHERE a = 1")
	if len(s.Where) != 1 {
		t.Fatalf("%+v", s)
	}
}

func TestParseStringEscapes(t *testing.T) {
	st, err := Parse("INSERT INTO t VALUES ('it''s')")
	if err != nil {
		t.Fatal(err)
	}
	if lit := st.(*InsertStmt).Rows[0][0].(Literal); lit.Val.Str != "it's" {
		t.Fatalf("escape: %q", lit.Val.Str)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELEC * FROM t",
		"SELECT FROM t",
		"SELECT * FROM",
		"SELECT * FROM t WHERE",
		"SELECT * FROM t WHERE a ==",
		"SELECT * FROM t LIMIT x",
		"INSERT INTO t",
		"INSERT INTO t VALUES 1",
		"UPDATE t SET",
		"DELETE t",
		"SELECT * FROM t WHERE a = 'unterminated",
		"SELECT * FROM t WHERE a = $",
		"SELECT * FROM t; garbage",
		"SELECT * FROM t WHERE a ! b",
		"SELECT * FROM t WHERE a = 1 AND",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Fatalf("must fail: %q", q)
		} else if !strings.Contains(err.Error(), "sql:") {
			t.Fatalf("error prefix: %v", err)
		}
	}
}

func TestCmpOpString(t *testing.T) {
	if OpNe.String() != "<>" || OpGe.String() != ">=" {
		t.Fatalf("op names")
	}
}
