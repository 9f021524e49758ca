// Package sqldriver exposes the embedded sqldb engine through the
// standard database/sql interface, registered as driver "ecfdmem".
//
// The paper's detection algorithms run against a commercial RDBMS
// through SQL; here they run against sqldb through database/sql, so the
// detection code is written exactly as it would be for a production
// database (Open / Exec / Query / prepared statements / transactions).
//
// The data source name selects a named in-memory database: opening the
// same DSN twice shares one engine instance, and RegisterDB installs a
// pre-built engine under a DSN (used by tests and the bench harness to
// bulk-load datasets without round-tripping through INSERT statements).
//
// The driver is safe for concurrent use: database/sql hands each
// goroutine its own connection, every connection is a thin handle on
// the shared engine, and the engine's MVCC epochs let every SELECT run
// lock-free against the published snapshot while DML/DDL serialize on
// the writer side. The server's concurrent check and violation readers
// (internal/server) go through exactly this path.
//
// A write transaction belongs to the connection that began it: that
// connection's Exec and Query run inside the engine's transaction and
// read its writes, every other connection reads the last committed
// epoch, and a write from another connection waits until the
// transaction ends. Commit publishes the transaction's changes at once.
//
// A transaction opened with ReadOnly (sql.TxOptions{ReadOnly: true})
// pins one epoch for its whole lifetime: every query inside it
// observes exactly that snapshot, no matter how many writers commit
// meanwhile, and Commit/Rollback release the pin. Exec inside a
// read-only transaction is refused.
package sqldriver

import (
	"context"
	"database/sql"
	"database/sql/driver"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"

	"ecfd/internal/relation"
	"ecfd/internal/sqldb"
)

// DriverName is the name the driver registers under.
const DriverName = "ecfdmem"

func init() {
	sql.Register(DriverName, &Driver{})
}

// Driver implements driver.Driver over shared named engines.
type Driver struct{}

var (
	mu      sync.Mutex
	engines = make(map[string]*sqldb.DB)
)

// RegisterDB installs (or replaces) the engine behind a DSN.
func RegisterDB(dsn string, db *sqldb.DB) {
	mu.Lock()
	defer mu.Unlock()
	engines[dsn] = db
}

// Unregister drops the engine behind a DSN so its memory can be
// reclaimed; a later Open of the same DSN starts fresh. A durable
// engine is closed first, syncing any batched WAL tail to disk.
func Unregister(dsn string) {
	mu.Lock()
	defer mu.Unlock()
	if db, ok := engines[dsn]; ok && db.Durable() {
		db.Close()
	}
	delete(engines, dsn)
}

// OpenEngine returns the engine behind a DSN, creating it on first
// use. The DSN is "name" for a volatile in-memory engine, or
// "name?opt=v&opt=v" to configure durability:
//
//	wal=DIR          write-ahead-log directory; presence makes the
//	                 engine durable (recovered from DIR on first open)
//	fsync=POLICY     always | batched | off (default always)
//	fsync_every=N    batched policy: sync every N commit units
//	checkpoint=N     snapshot + rotate the WAL when it exceeds N bytes
//
// Engines are shared by full DSN string: two opens of the same DSN see
// one engine, and the options are read only on the open that creates
// it.
func OpenEngine(dsn string) (*sqldb.DB, error) {
	mu.Lock()
	defer mu.Unlock()
	if db, ok := engines[dsn]; ok {
		return db, nil
	}
	opts, err := parseDSN(dsn)
	if err != nil {
		return nil, err
	}
	var db *sqldb.DB
	if opts.Dir == "" {
		db = sqldb.NewDB()
	} else if db, err = sqldb.Open(opts); err != nil {
		return nil, fmt.Errorf("sqldriver: open %q: %w", dsn, err)
	}
	engines[dsn] = db
	return db, nil
}

// Lookup returns the engine behind a DSN if one is registered; it never
// creates one.
func Lookup(dsn string) (*sqldb.DB, bool) {
	mu.Lock()
	defer mu.Unlock()
	db, ok := engines[dsn]
	return db, ok
}

// Engine returns the engine behind a DSN, creating it on first use.
// It is the legacy option-free entry point: a DSN with durability
// options that fail to apply (bad option syntax, unreadable WAL
// directory) panics here — use OpenEngine or database/sql Open to
// handle the error.
func Engine(dsn string) *sqldb.DB {
	db, err := OpenEngine(dsn)
	if err != nil {
		panic(err)
	}
	return db
}

// parseDSN splits "name?opt=v&..." into WAL options. A DSN without
// options (or without wal=) selects a volatile engine.
func parseDSN(dsn string) (sqldb.WALOptions, error) {
	var opts sqldb.WALOptions
	q := strings.IndexByte(dsn, '?')
	if q < 0 {
		return opts, nil
	}
	for _, kv := range strings.Split(dsn[q+1:], "&") {
		if kv == "" {
			continue
		}
		k, v, _ := strings.Cut(kv, "=")
		switch k {
		case "wal":
			opts.Dir = v
		case "fsync":
			p, err := sqldb.ParseFsyncPolicy(v)
			if err != nil {
				return opts, fmt.Errorf("sqldriver: dsn %q: %w", dsn, err)
			}
			opts.Fsync = p
		case "fsync_every":
			n, err := strconv.Atoi(v)
			if err != nil || n < 1 {
				return opts, fmt.Errorf("sqldriver: dsn %q: fsync_every=%q is not a positive integer", dsn, v)
			}
			opts.FsyncEvery = n
		case "checkpoint":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil || n < 0 {
				return opts, fmt.Errorf("sqldriver: dsn %q: checkpoint=%q is not a byte count", dsn, v)
			}
			opts.CheckpointBytes = n
		default:
			return opts, fmt.Errorf("sqldriver: dsn %q: unknown option %q", dsn, k)
		}
	}
	if opts.Dir == "" && q >= 0 && strings.Contains(dsn[q+1:], "=") {
		// Options without wal= would be silently meaningless.
		if dsn[q+1:] != "" {
			return opts, fmt.Errorf("sqldriver: dsn %q sets durability options without wal=", dsn)
		}
	}
	return opts, nil
}

// Open implements driver.Driver.
func (*Driver) Open(dsn string) (driver.Conn, error) {
	db, err := OpenEngine(dsn)
	if err != nil {
		return nil, err
	}
	return &conn{db: db}, nil
}

type conn struct {
	db   *sqldb.DB
	tx   *sqldb.Tx
	snap *sqldb.Snap // non-nil inside a ReadOnly transaction
}

func (c *conn) Prepare(query string) (driver.Stmt, error) {
	// The engine's Prepare returns the cached compiled plan for this
	// statement text, so repeated database/sql Prepare/Exec cycles (the
	// detector's fixed statement set) skip lexing, parsing and
	// compilation entirely.
	p, err := c.db.Prepare(query)
	if err != nil {
		return nil, err
	}
	return &prepared{conn: c, p: p}, nil
}

// Close releases whatever the connection still holds. database/sql
// closes a driver connection directly — without first finishing its
// transaction — when a context is cancelled mid-operation or the pool
// discards the conn as broken; a ReadOnly transaction's epoch pin (or
// a writer transaction's lock) must not outlive the connection, or a
// disconnected client would strand an MVCC epoch forever.
func (c *conn) Close() error {
	if s := c.snap; s != nil {
		c.snap = nil
		s.Close()
	}
	if tx := c.tx; tx != nil {
		c.tx = nil
		tx.Rollback()
	}
	return nil
}

func (c *conn) Begin() (driver.Tx, error) {
	tx, err := c.db.Begin()
	if err != nil {
		return nil, err
	}
	c.tx = tx
	return &txWrap{conn: c}, nil
}

// BeginTx implements driver.ConnBeginTx. A ReadOnly transaction never
// touches the engine's write path: it pins the published epoch, all
// its queries run against that frozen snapshot, and Commit/Rollback
// just release the pin. Writers proceed concurrently.
func (c *conn) BeginTx(ctx context.Context, opts driver.TxOptions) (driver.Tx, error) {
	if opts.ReadOnly {
		c.snap = c.db.PinSnapshot()
		return &txWrap{conn: c}, nil
	}
	return c.Begin()
}

type txWrap struct{ conn *conn }

func (t *txWrap) Commit() error {
	if s := t.conn.snap; s != nil {
		t.conn.snap = nil
		s.Close()
		return nil
	}
	defer func() { t.conn.tx = nil }()
	return t.conn.tx.Commit()
}

func (t *txWrap) Rollback() error {
	if s := t.conn.snap; s != nil {
		t.conn.snap = nil
		s.Close()
		return nil
	}
	defer func() { t.conn.tx = nil }()
	return t.conn.tx.Rollback()
}

type prepared struct {
	conn *conn
	p    *sqldb.Prepared
}

func (p *prepared) Close() error  { return nil }
func (p *prepared) NumInput() int { return p.p.NumParams() }

func (p *prepared) Exec(args []driver.Value) (driver.Result, error) {
	if p.conn.snap != nil {
		return nil, fmt.Errorf("sqldriver: Exec inside a read-only transaction")
	}
	params, err := toValues(args)
	if err != nil {
		return nil, err
	}
	n, err := p.p.ExecTx(p.conn.tx, params...)
	if err != nil {
		return nil, err
	}
	return result{rows: n}, nil
}

func (p *prepared) Query(args []driver.Value) (driver.Rows, error) {
	params, err := toValues(args)
	if err != nil {
		return nil, err
	}
	var res *sqldb.Result
	if s := p.conn.snap; s != nil {
		res, err = p.p.QueryAt(s, params...)
	} else {
		res, err = p.p.QueryTx(p.conn.tx, params...)
	}
	if err != nil {
		return nil, fmt.Errorf("sqldriver: %w", err)
	}
	return &rows{res: res}, nil
}

type result struct{ rows int64 }

func (r result) LastInsertId() (int64, error) {
	return 0, fmt.Errorf("sqldriver: LastInsertId is not supported")
}
func (r result) RowsAffected() (int64, error) { return r.rows, nil }

type rows struct {
	res *sqldb.Result
	pos int
}

func (r *rows) Columns() []string { return r.res.Cols }
func (r *rows) Close() error      { return nil }

func (r *rows) Next(dest []driver.Value) error {
	if r.pos >= len(r.res.Rows) {
		return io.EOF
	}
	row := r.res.Rows[r.pos]
	r.pos++
	for i, v := range row {
		dest[i] = fromValue(v)
	}
	return nil
}

// toValues converts driver arguments into engine values.
func toValues(args []driver.Value) ([]relation.Value, error) {
	out := make([]relation.Value, len(args))
	for i, a := range args {
		switch x := a.(type) {
		case nil:
			out[i] = relation.Null()
		case int64:
			out[i] = relation.Int(x)
		case float64:
			out[i] = relation.Float(x)
		case bool:
			out[i] = relation.Bool(x)
		case string:
			out[i] = relation.Text(x)
		case []byte:
			out[i] = relation.Text(string(x))
		default:
			return nil, fmt.Errorf("sqldriver: unsupported parameter type %T", a)
		}
	}
	return out, nil
}

func fromValue(v relation.Value) driver.Value {
	switch v.K {
	case relation.KindNull:
		return nil
	case relation.KindInt:
		return v.I
	case relation.KindBool:
		return v.I != 0
	case relation.KindFloat:
		return v.F
	default:
		return v.S
	}
}
