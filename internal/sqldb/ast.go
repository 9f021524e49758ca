package sqldb

import (
	"ecfd/internal/relation"
)

// Statement is any parsed SQL statement.
type Statement interface{ stmt() }

// ColumnDef is one column in CREATE TABLE.
type ColumnDef struct {
	Name string
	Kind relation.Kind
}

// CreateTable is CREATE TABLE name (cols...).
type CreateTable struct {
	Name string
	Cols []ColumnDef
}

// CreateIndex is CREATE INDEX name ON table (cols...).
type CreateIndex struct {
	Name  string
	Table string
	Cols  []string
}

// DropTable is DROP TABLE [IF EXISTS] name.
type DropTable struct {
	Name     string
	IfExists bool
}

// TruncateTable is TRUNCATE TABLE name.
type TruncateTable struct{ Name string }

// Insert is INSERT INTO t [(cols)] VALUES (...),(...) | SELECT ... .
type Insert struct {
	Table string
	Cols  []string
	Rows  [][]Expr
	Query *Select
}

// Assignment is one SET col = literal clause.
type Assignment struct {
	Column string
	Value  relation.Value
}

// Update is UPDATE t [alias] SET ... [WHERE ...].
type Update struct {
	Table string
	Alias string
	Set   []Assignment
	Where Expr
}

// Delete is DELETE FROM t [alias] [WHERE ...].
type Delete struct {
	Table string
	Alias string
	Where Expr
}

// Select is a (possibly nested) SELECT statement.
type Select struct {
	Distinct bool
	Exprs    []SelectExpr
	From     []TableRef
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []*ColumnRef // ascending
	Limit    Expr         // nil when absent
}

// SelectExpr is one item of the select list. Star selects all columns.
type SelectExpr struct {
	Expr  Expr
	Alias string
	Star  bool
}

// TableRef is one entry of the FROM list: a base table or a derived
// table (subquery) with an alias. Joins are comma lists.
type TableRef struct {
	Table string
	Alias string
	Sub   *Select
}

// Name returns the binding name of the table reference.
func (tr TableRef) Name() string {
	if tr.Alias != "" {
		return tr.Alias
	}
	return tr.Table
}

func (*CreateTable) stmt()   {}
func (*CreateIndex) stmt()   {}
func (*DropTable) stmt()     {}
func (*TruncateTable) stmt() {}
func (*Insert) stmt()        {}
func (*Update) stmt()        {}
func (*Delete) stmt()        {}
func (*Select) stmt()        {}

// Expr is any SQL expression node.
type Expr interface{ expr() }

// Literal is a constant value. A negative number is one literal.
type Literal struct{ Val relation.Value }

// Param is the i-th '?' placeholder (0-based).
type Param struct{ Index int }

// ColumnRef names a column, optionally qualified by table alias.
type ColumnRef struct{ Table, Column string }

// Binary is a binary operator application.
type Binary struct {
	Op   string // AND OR = <> < <= > >=
	L, R Expr
}

// IsNull is x IS [NOT] NULL.
type IsNull struct {
	X   Expr
	Neg bool
}

// InSelect is x IN (SELECT ...).
type InSelect struct {
	X   Expr
	Sub *Select
}

// Exists is [NOT] EXISTS (SELECT ...).
type Exists struct {
	Sub *Select
	Neg bool
}

// Case is CASE WHEN Cond THEN Then ELSE Else END.
type Case struct{ Cond, Then, Else Expr }

// FuncCall is a scalar or aggregate function application. Star is
// COUNT(*).
type FuncCall struct {
	Name string // upper-cased
	Args []Expr
	Star bool
}

func (*Literal) expr()   {}
func (*Param) expr()     {}
func (*ColumnRef) expr() {}
func (*Binary) expr()    {}
func (*IsNull) expr()    {}
func (*InSelect) expr()  {}
func (*Exists) expr()    {}
func (*Case) expr()      {}
func (*FuncCall) expr()  {}
