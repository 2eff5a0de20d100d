package exec

import (
	"fmt"

	"tscout/internal/sql"
	"tscout/internal/storage"
)

// relation is a materialized intermediate result: rows plus the column
// binding metadata for name resolution across joins.
type relation struct {
	*binding
	rows  []storage.Row
	width int64 // estimated bytes per row
}

// binding is the column metadata of a relation: qualified "binding.col"
// names and the maps that resolve a column reference to a row position.
// It is immutable once built, so one binding serves every statement that
// reads the same table under the same name.
type binding struct {
	cols []string // qualified "binding.col"
	bare map[string]int
	qual map[string]int
}

const ambiguous = -2

// bindKey identifies a table's binding: the name queries qualify its
// columns with, and the schema those columns come from.
type bindKey struct {
	name   string
	schema *storage.Schema
}

// newRelation returns an empty relation over schema under the given name,
// sharing the engine's binding for that pair (built on first use).
func (e *Engine) newRelation(name string, schema *storage.Schema) *relation {
	k := bindKey{name, schema}
	e.bindMu.Lock()
	b, ok := e.bindings[k]
	if !ok {
		b = newBinding(len(schema.Columns()))
		for i, c := range schema.Columns() {
			b.add(name+"."+c.Name, c.Name, i)
		}
		e.bindings[k] = b
	}
	e.bindMu.Unlock()
	return &relation{binding: b, width: schema.RowWidth()}
}

func newBinding(n int) *binding {
	return &binding{
		cols: make([]string, 0, n),
		bare: make(map[string]int, n),
		qual: make(map[string]int, n),
	}
}

func (b *binding) add(qualified, bare string, idx int) {
	b.cols = append(b.cols, qualified)
	b.qual[qualified] = idx
	if _, dup := b.bare[bare]; dup {
		b.bare[bare] = ambiguous
	} else {
		b.bare[bare] = idx
	}
}

// resolve maps a column reference to a row position.
func (b *binding) resolve(c sql.ColRef) (int, error) {
	if c.Table != "" {
		if i, ok := b.qual[c.Table+"."+c.Name]; ok {
			return i, nil
		}
		return 0, fmt.Errorf("exec: unknown column %s", c)
	}
	i, ok := b.bare[c.Name]
	if !ok {
		return 0, fmt.Errorf("exec: unknown column %s", c.Name)
	}
	if i == ambiguous {
		return 0, fmt.Errorf("exec: ambiguous column %s", c.Name)
	}
	return i, nil
}

// concatRelations builds the joined relation metadata of a and b (rows
// appended by the join operator itself).
func concatRelations(a, b *relation) *relation {
	out := newBinding(len(a.cols) + len(b.cols))
	for i, qc := range a.cols {
		out.add(qc, bareName(qc), i)
	}
	off := len(a.cols)
	for i, qc := range b.cols {
		out.add(qc, bareName(qc), off+i)
	}
	return &relation{binding: out, width: a.width + b.width}
}

func bareName(qualified string) string {
	for i := len(qualified) - 1; i >= 0; i-- {
		if qualified[i] == '.' {
			return qualified[i+1:]
		}
	}
	return qualified
}

// compiledPred is a WHERE conjunct resolved against a relation.
type compiledPred struct {
	col int
	op  sql.CmpOp
	val storage.Value
}

func (p compiledPred) eval(row storage.Row) bool {
	c := row[p.col].Compare(p.val)
	switch p.op {
	case sql.OpEq:
		return c == 0
	case sql.OpNe:
		return c != 0
	case sql.OpLt:
		return c < 0
	case sql.OpLe:
		return c <= 0
	case sql.OpGt:
		return c > 0
	case sql.OpGe:
		return c >= 0
	}
	return false
}

// evalExpr evaluates a scalar expression against an optional input row.
func evalExpr(e sql.Expr, row storage.Row, rel *relation, params []storage.Value) (storage.Value, error) {
	switch x := e.(type) {
	case sql.Literal:
		return x.Val, nil
	case sql.Param:
		if x.N < 1 || x.N > len(params) {
			return storage.Value{}, fmt.Errorf("exec: parameter $%d not bound (%d given)", x.N, len(params))
		}
		return params[x.N-1], nil
	case sql.ColExpr:
		if rel == nil || row == nil {
			return storage.Value{}, fmt.Errorf("exec: column %s in a context without input rows", x.Ref)
		}
		i, err := rel.resolve(x.Ref)
		if err != nil {
			return storage.Value{}, err
		}
		return row[i], nil
	case sql.Binary:
		l, err := evalExpr(x.Left, row, rel, params)
		if err != nil {
			return storage.Value{}, err
		}
		r, err := evalExpr(x.Right, row, rel, params)
		if err != nil {
			return storage.Value{}, err
		}
		return applyBinary(l, x.Op, r)
	}
	return storage.Value{}, fmt.Errorf("exec: unsupported expression %T", e)
}

func applyBinary(l storage.Value, op byte, r storage.Value) (storage.Value, error) {
	if l.Kind == storage.KindString || r.Kind == storage.KindString {
		if op == '+' {
			return storage.NewString(l.String() + r.String()), nil
		}
		return storage.Value{}, fmt.Errorf("exec: operator %c on strings", op)
	}
	if l.Kind == storage.KindFloat || r.Kind == storage.KindFloat {
		a, b := l.AsFloat(), r.AsFloat()
		switch op {
		case '+':
			return storage.NewFloat(a + b), nil
		case '-':
			return storage.NewFloat(a - b), nil
		case '*':
			return storage.NewFloat(a * b), nil
		case '/':
			if b == 0 {
				return storage.Null(), nil
			}
			return storage.NewFloat(a / b), nil
		}
	}
	a, b := l.AsInt(), r.AsInt()
	switch op {
	case '+':
		return storage.NewInt(a + b), nil
	case '-':
		return storage.NewInt(a - b), nil
	case '*':
		return storage.NewInt(a * b), nil
	case '/':
		if b == 0 {
			return storage.Null(), nil
		}
		return storage.NewInt(a / b), nil
	}
	return storage.Value{}, fmt.Errorf("exec: unknown operator %c", op)
}
