package sqldb

import (
	"strconv"
	"strings"

	"ecfd/internal/relation"
)

// Parse parses a single SQL statement.
func Parse(src string) (Statement, error) {
	stmts, err := ParseScript(src)
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, errAt(0, "expected exactly one statement, got %d", len(stmts))
	}
	return stmts[0], nil
}

// ParseScript parses a semicolon-separated sequence of statements.
func ParseScript(src string) ([]Statement, error) {
	p := &parser{lex: &lexer{src: src}}
	p.bump()
	var out []Statement
	for {
		for p.isPunct(";") {
			p.bump()
		}
		if p.tok.kind == tokEOF {
			break
		}
		s, err := p.statement()
		if p.err != nil { // a lexer error ends the input where it stands
			return nil, p.err
		}
		if err != nil {
			return nil, err
		}
		out = append(out, s)
		if p.tok.kind != tokEOF && !p.isPunct(";") {
			return nil, errAt(p.tok.pos, "unexpected %s after statement", p.tok)
		}
	}
	if p.err != nil {
		return nil, p.err
	}
	if len(out) == 0 {
		return nil, errAt(0, "empty statement")
	}
	return out, nil
}

type parser struct {
	lex    *lexer
	tok    token
	err    error
	params int
}

func (p *parser) bump() {
	if p.err != nil {
		p.tok = token{kind: tokEOF}
		return
	}
	t, err := p.lex.next()
	if err != nil {
		p.err = err
		t = token{kind: tokEOF}
	}
	p.tok = t
}

func (p *parser) isKeyword(kw string) bool { return p.tok.kind == tokKeyword && p.tok.text == kw }
func (p *parser) isPunct(s string) bool    { return p.tok.kind == tokPunct && p.tok.text == s }

// accept consumes the keyword if present.
func (p *parser) accept(kw string) bool {
	if p.isKeyword(kw) {
		p.bump()
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.isKeyword(kw) {
		return errAt(p.tok.pos, "expected %s, got %s", kw, p.tok)
	}
	p.bump()
	return nil
}

func (p *parser) expectPunct(s string) error {
	if !p.isPunct(s) {
		return errAt(p.tok.pos, "expected %q, got %s", s, p.tok)
	}
	p.bump()
	return nil
}

func (p *parser) ident() (string, error) {
	if p.tok.kind != tokIdent {
		return "", errAt(p.tok.pos, "expected identifier, got %s", p.tok)
	}
	s := p.tok.text
	p.bump()
	return s, nil
}

// identList parses ( ident, ... ).
func (p *parser) identList() ([]string, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var out []string
	for {
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		out = append(out, name)
		if !p.isPunct(",") {
			return out, p.expectPunct(")")
		}
		p.bump()
	}
}

func (p *parser) statement() (Statement, error) {
	switch {
	case p.isKeyword("SELECT"):
		return p.selectStmt()
	case p.isKeyword("CREATE"):
		return p.createStmt()
	case p.isKeyword("DROP"):
		return p.dropStmt()
	case p.isKeyword("TRUNCATE"):
		p.bump()
		if err := p.expectKeyword("TABLE"); err != nil {
			return nil, err
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &TruncateTable{Name: name}, nil
	case p.isKeyword("INSERT"):
		return p.insertStmt()
	case p.isKeyword("UPDATE"):
		return p.updateStmt()
	case p.isKeyword("DELETE"):
		return p.deleteStmt()
	default:
		return nil, errAt(p.tok.pos, "expected statement, got %s", p.tok)
	}
}

// columnTypes are the column types of CREATE TABLE.
var columnTypes = map[string]relation.Kind{
	"INTEGER": relation.KindInt, "TEXT": relation.KindText,
	"REAL": relation.KindFloat, "BOOLEAN": relation.KindBool,
}

func (p *parser) createStmt() (Statement, error) {
	p.bump() // CREATE
	switch {
	case p.accept("TABLE"):
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		ct := &CreateTable{Name: name}
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		for {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			kind, ok := columnTypes[strings.ToUpper(p.tok.text)]
			if p.tok.kind != tokIdent || !ok {
				return nil, errAt(p.tok.pos, "expected column type, got %s", p.tok)
			}
			p.bump()
			ct.Cols = append(ct.Cols, ColumnDef{Name: col, Kind: kind})
			if !p.isPunct(",") {
				return ct, p.expectPunct(")")
			}
			p.bump()
		}
	case p.accept("INDEX"):
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		table, err := p.ident()
		if err != nil {
			return nil, err
		}
		cols, err := p.identList()
		return &CreateIndex{Name: name, Table: table, Cols: cols}, err
	default:
		return nil, errAt(p.tok.pos, "expected TABLE or INDEX after CREATE, got %s", p.tok)
	}
}

func (p *parser) dropStmt() (Statement, error) {
	p.bump() // DROP
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	dt := &DropTable{}
	if p.accept("IF") {
		if err := p.expectKeyword("EXISTS"); err != nil {
			return nil, err
		}
		dt.IfExists = true
	}
	name, err := p.ident()
	dt.Name = name
	return dt, err
}

func (p *parser) insertStmt() (Statement, error) {
	p.bump() // INSERT
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	ins := &Insert{Table: name}
	if p.isPunct("(") {
		if ins.Cols, err = p.identList(); err != nil {
			return nil, err
		}
	}
	switch {
	case p.accept("VALUES"):
		for {
			row, err := p.exprList()
			if err != nil {
				return nil, err
			}
			ins.Rows = append(ins.Rows, row)
			if !p.isPunct(",") {
				return ins, nil
			}
			p.bump()
		}
	case p.isKeyword("SELECT"):
		ins.Query, err = p.selectStmt()
		return ins, err
	default:
		return nil, errAt(p.tok.pos, "expected VALUES or SELECT, got %s", p.tok)
	}
}

// exprList parses ( expr, ... ).
func (p *parser) exprList() ([]Expr, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var out []Expr
	for {
		e, err := p.expression()
		if err != nil {
			return nil, err
		}
		out = append(out, e)
		if !p.isPunct(",") {
			return out, p.expectPunct(")")
		}
		p.bump()
	}
}

func (p *parser) updateStmt() (Statement, error) {
	p.bump() // UPDATE
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	up := &Update{Table: name}
	if p.tok.kind == tokIdent { // optional alias
		up.Alias = p.tok.text
		p.bump()
	}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("="); err != nil {
			return nil, err
		}
		lit, ok := p.literal()
		if !ok {
			return nil, errAt(p.tok.pos, "expected a literal, got %s", p.tok)
		}
		if p.err != nil {
			return nil, p.err
		}
		up.Set = append(up.Set, Assignment{Column: col, Value: lit.Val})
		if !p.isPunct(",") {
			break
		}
		p.bump()
	}
	if p.accept("WHERE") {
		if up.Where, err = p.expression(); err != nil {
			return nil, err
		}
	}
	return up, nil
}

func (p *parser) deleteStmt() (Statement, error) {
	p.bump() // DELETE
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	del := &Delete{Table: name}
	if p.tok.kind == tokIdent {
		del.Alias = p.tok.text
		p.bump()
	}
	if p.accept("WHERE") {
		if del.Where, err = p.expression(); err != nil {
			return nil, err
		}
	}
	return del, nil
}

func (p *parser) selectStmt() (*Select, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	sel := &Select{Distinct: p.accept("DISTINCT")}
	for {
		se := SelectExpr{Star: p.isPunct("*")}
		if se.Star {
			p.bump()
		} else {
			var err error
			if se.Expr, err = p.expression(); err != nil {
				return nil, err
			}
			if p.accept("AS") {
				if se.Alias, err = p.ident(); err != nil {
					return nil, err
				}
			}
		}
		sel.Exprs = append(sel.Exprs, se)
		if !p.isPunct(",") {
			break
		}
		p.bump()
	}
	if p.accept("FROM") {
		for {
			tr, err := p.tableRef()
			if err != nil {
				return nil, err
			}
			sel.From = append(sel.From, tr)
			if !p.isPunct(",") {
				break
			}
			p.bump()
		}
	}
	var err error
	if p.accept("WHERE") {
		if sel.Where, err = p.expression(); err != nil {
			return nil, err
		}
	}
	if p.accept("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.expression()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, e)
			if !p.isPunct(",") {
				break
			}
			p.bump()
		}
	}
	if p.accept("HAVING") {
		if sel.Having, err = p.expression(); err != nil {
			return nil, err
		}
	}
	if p.accept("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			name, err := p.ident()
			if err != nil {
				return nil, err
			}
			ref, err := p.columnRef(name)
			if err != nil {
				return nil, err
			}
			sel.OrderBy = append(sel.OrderBy, ref)
			if !p.isPunct(",") {
				break
			}
			p.bump()
		}
	}
	if p.accept("LIMIT") {
		if sel.Limit, err = p.expression(); err != nil {
			return nil, err
		}
	}
	return sel, nil
}

func conjoin(a, b Expr) Expr {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return &Binary{Op: "AND", L: a, R: b}
}

// tableRef parses a base table or a derived table (subquery), each with
// an optional alias — required for a derived table.
func (p *parser) tableRef() (TableRef, error) {
	var tr TableRef
	var err error
	if p.isPunct("(") {
		if tr.Sub, err = p.subquery(); err != nil {
			return tr, err
		}
	} else if tr.Table, err = p.ident(); err != nil {
		return tr, err
	}
	if p.tok.kind == tokIdent {
		tr.Alias = p.tok.text
		p.bump()
	}
	if tr.Sub != nil && tr.Alias == "" {
		return tr, errAt(p.tok.pos, "derived table requires an alias")
	}
	return tr, nil
}

// --- expressions (precedence climbing) ---

func (p *parser) expression() (Expr, error) { return p.orExpr() }

func (p *parser) orExpr() (Expr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.accept("OR") {
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) andExpr() (Expr, error) {
	l, err := p.comparison()
	if err != nil {
		return nil, err
	}
	for p.accept("AND") {
		r, err := p.comparison()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: "AND", L: l, R: r}
	}
	return l, nil
}

// comparison parses [NOT] EXISTS (SELECT ...), or an operand followed
// by comparisons, IS [NOT] NULL and IN.
func (p *parser) comparison() (Expr, error) {
	if p.isKeyword("EXISTS") || p.isKeyword("NOT") {
		neg := p.accept("NOT")
		if err := p.expectKeyword("EXISTS"); err != nil {
			return nil, err
		}
		sub, err := p.subquery()
		return &Exists{Sub: sub, Neg: neg}, err
	}

	l, err := p.primary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.isPunct("=") || p.isPunct("<>") ||
			p.isPunct("<") || p.isPunct("<=") || p.isPunct(">") || p.isPunct(">="):
			op := p.tok.text
			p.bump()
			r, err := p.primary()
			if err != nil {
				return nil, err
			}
			l = &Binary{Op: op, L: l, R: r}

		case p.accept("IS"):
			neg := p.accept("NOT")
			if err := p.expectKeyword("NULL"); err != nil {
				return nil, err
			}
			l = &IsNull{X: l, Neg: neg}

		case p.accept("IN"):
			if p.isPunct("(") && !p.peekSelect() {
				return nil, notSupported(p.tok.pos, "an IN list")
			}
			sub, err := p.subquery()
			if err != nil {
				return nil, err
			}
			l = &InSelect{X: l, Sub: sub}

		default:
			return l, nil
		}
	}
}

// peekSelect reports whether the token after the current one is SELECT.
func (p *parser) peekSelect() bool {
	save, saveTok := *p.lex, p.tok
	p.bump()
	is := p.isKeyword("SELECT")
	*p.lex, p.tok, p.err = save, saveTok, nil
	return is
}

// subquery parses ( SELECT ... ).
func (p *parser) subquery() (*Select, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	sub, err := p.selectStmt()
	if err != nil {
		return nil, err
	}
	return sub, p.expectPunct(")")
}

// literal consumes a literal — a number (negative after a minus), a
// string, NULL, TRUE or FALSE — when one is next. A malformed number
// leaves its error in p.err.
func (p *parser) literal() (*Literal, bool) {
	tok := p.tok
	switch {
	case tok.kind == tokPunct && tok.text == "-":
		p.bump()
		if p.tok.kind != tokNumber {
			p.err = errAt(p.tok.pos, "expected a number after -, got %s", p.tok)
			return nil, true
		}
		lit, _ := p.literal()
		if lit != nil {
			lit.Val.I, lit.Val.F = -lit.Val.I, -lit.Val.F
		}
		return lit, true
	case tok.kind == tokNumber:
		p.bump()
		if strings.ContainsAny(tok.text, ".eE") {
			f, err := strconv.ParseFloat(tok.text, 64)
			if err != nil {
				p.err = errAt(tok.pos, "bad number %q", tok.text)
			}
			return &Literal{Val: relation.Float(f)}, true
		}
		i, err := strconv.ParseInt(tok.text, 10, 64)
		if err != nil {
			p.err = errAt(tok.pos, "bad integer %q", tok.text)
		}
		return &Literal{Val: relation.Int(i)}, true
	case tok.kind == tokString:
		p.bump()
		return &Literal{Val: relation.Text(tok.text)}, true
	case p.accept("NULL"):
		return &Literal{Val: relation.Null()}, true
	case p.accept("TRUE"):
		return &Literal{Val: relation.Bool(true)}, true
	case p.accept("FALSE"):
		return &Literal{Val: relation.Bool(false)}, true
	}
	return nil, false
}

// functions are the dialect's functions by name: their argument count,
// or 0 for COUNT, which takes only *.
var functions = map[string]int{"COUNT": 0, "SUM": 1, "MAX": 1, "ABS": 1, "TOTEXT": 1, "COALESCE": 2}

func (p *parser) primary() (Expr, error) {
	tok := p.tok
	if lit, ok := p.literal(); ok {
		if p.err != nil {
			return nil, p.err
		}
		return lit, nil
	}
	switch {
	case tok.kind == tokParam:
		p.bump()
		e := &Param{Index: p.params}
		p.params++
		return e, nil

	case p.isKeyword("CASE"):
		return p.caseExpr()

	case p.isPunct("("):
		p.bump()
		e, err := p.expression()
		if err != nil {
			return nil, err
		}
		return e, p.expectPunct(")")

	case tok.kind == tokIdent:
		p.bump()
		if !p.isPunct("(") {
			return p.columnRef(tok.text)
		}
		name := strings.ToUpper(tok.text)
		n, ok := functions[name]
		if !ok {
			return nil, notSupported(tok.pos, name)
		}
		fc := &FuncCall{Name: name}
		if n == 0 {
			p.bump()
			if err := p.expectPunct("*"); err != nil {
				return nil, err
			}
			fc.Star = true
			return fc, p.expectPunct(")")
		}
		args, err := p.exprList()
		if err == nil && len(args) != n {
			err = errAt(tok.pos, "%s takes %d argument(s), got %d", name, n, len(args))
		}
		fc.Args = args
		return fc, err

	default:
		return nil, errAt(tok.pos, "unexpected %s in expression", tok)
	}
}

// columnRef parses the rest of a column reference whose first name the
// caller consumed: name or table.name.
func (p *parser) columnRef(name string) (*ColumnRef, error) {
	if !p.isPunct(".") {
		return &ColumnRef{Column: name}, nil
	}
	p.bump()
	col, err := p.ident()
	return &ColumnRef{Table: name, Column: col}, err
}

// caseExpr parses CASE WHEN cond THEN e ELSE e END.
func (p *parser) caseExpr() (Expr, error) {
	p.bump() // CASE
	c := &Case{}
	for _, part := range []struct {
		kw  string
		dst *Expr
	}{{"WHEN", &c.Cond}, {"THEN", &c.Then}, {"ELSE", &c.Else}} {
		if err := p.expectKeyword(part.kw); err != nil {
			return nil, err
		}
		e, err := p.expression()
		if err != nil {
			return nil, err
		}
		*part.dst = e
	}
	return c, p.expectKeyword("END")
}
