package detect

import (
	"database/sql"

	"ecfd/internal/core"
	"ecfd/internal/relation"
	"ecfd/internal/sqldb"
)

// What is left of the retired parallel and sharded detectors: forwards to
// the serial detector for the repository benchmark's layer trace.

// Deprecated: ParallelDetect is BatchDetect; removed after ROADMAP 1(a).
func (d *Detector) ParallelDetect(int) (BatchStats, error) { return d.BatchDetect() }

// Deprecated: ShardedDetector is a Detector over NewSharded's handle, with
// a Close that does nothing; removed after ROADMAP 1(a).
type ShardedDetector struct{ *Detector }

func (*ShardedDetector) Close() {}

// Deprecated: ShardOptions is ignored; removed after ROADMAP 1(a).
type ShardOptions struct{ Shards int }

// Deprecated: NewSharded is New; removed after ROADMAP 1(a).
func NewSharded(db *sql.DB, schema *relation.Schema, sigma []*core.ECFD, _ ShardOptions) (*ShardedDetector, error) {
	d, err := New(db, schema, sigma)
	if err != nil {
		return nil, err
	}
	return &ShardedDetector{d}, nil
}

// Deprecated: BindEngine does nothing; removed after ROADMAP 1(a).
func (d *Detector) BindEngine(*sqldb.DB) {}

// Deprecated: SetAtomicUpdates does nothing, every mutating call being one
// transaction (runAtomic); removed after ROADMAP 1(a).
func (d *Detector) SetAtomicUpdates(bool) {}
