package detect

import (
	"bytes"
	"database/sql"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"ecfd/internal/gen"
	"ecfd/internal/sqldriver"
)

// shardedViolationCSV renders a sharded detector's gathered violation
// set for byte-level comparison against the serial legs.
func shardedViolationCSV(t testing.TB, s *ShardedDetector) []byte {
	t.Helper()
	vio, err := s.Violations()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := vio.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// newShardedBench builds a sharded detector over the generator workload
// (the sharded sibling of newBenchDetector).
func newShardedBench(t testing.TB, rows int, seed int64, opts ShardOptions) (*ShardedDetector, func()) {
	t.Helper()
	dsn := fmt.Sprintf("detect_shard_%d_%d_%d", rows, seed, dsnSeq.Add(1))
	db, err := sql.Open(sqldriver.DriverName, dsn)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSharded(db, gen.Schema(), gen.Constraints(), opts)
	if err != nil {
		db.Close()
		sqldriver.Unregister(dsn)
		t.Fatal(err)
	}
	cleanup := func() {
		s.Close()
		db.Close()
		sqldriver.Unregister(dsn)
	}
	if err := s.Install(); err != nil {
		cleanup()
		t.Fatal(err)
	}
	if _, err := s.LoadData(gen.Dataset(gen.Config{Rows: rows, Noise: 5, Seed: seed})); err != nil {
		cleanup()
		t.Fatal(err)
	}
	return s, cleanup
}

// TestShardRouting is the routing property test: every RID routes to
// exactly one shard (total, deterministic, in range) for every K, and
// consecutive RIDs within one routing block agree.
func TestShardRouting(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, k := range []int{1, 2, 3, 4, 8} {
		for trial := 0; trial < 2000; trial++ {
			rid := rng.Int63() - rng.Int63() // covers negatives
			s := shardOf(rid, k)
			if s < 0 || s >= k {
				t.Fatalf("shardOf(%d, %d) = %d out of range", rid, k, s)
			}
			if s2 := shardOf(rid, k); s2 != s {
				t.Fatalf("shardOf(%d, %d) not deterministic: %d then %d", rid, k, s, s2)
			}
		}
		// Same 256-RID block → same shard.
		base := int64(1 << 20)
		if shardOf(base, k) != shardOf(base+255, k) {
			t.Errorf("k=%d: RIDs of one routing block split across shards", k)
		}
	}
	// Block interleaving balances a monotone load: over any contiguous
	// run of whole blocks, shard counts differ by at most one block.
	const blocks = 37
	counts := make(map[int]int)
	for b := 0; b < blocks; b++ {
		counts[shardOf(int64(b)<<8, 4)]++
	}
	lo, hi := blocks, 0
	for s := 0; s < 4; s++ {
		if counts[s] < lo {
			lo = counts[s]
		}
		if counts[s] > hi {
			hi = counts[s]
		}
	}
	if hi-lo > 1 {
		t.Errorf("monotone block load unbalanced across 4 shards: %v", counts)
	}
}

// TestShardedDetectEmpty covers the degenerate shapes: an empty
// relation, and more shards than rows (some shards permanently empty).
func TestShardedDetectEmpty(t *testing.T) {
	dsn := fmt.Sprintf("detect_shard_empty_%d", dsnSeq.Add(1))
	db, err := sql.Open(sqldriver.DriverName, dsn)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	defer sqldriver.Unregister(dsn)
	s, err := NewSharded(db, gen.Schema(), gen.Constraints(), ShardOptions{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Install(); err != nil {
		t.Fatal(err)
	}
	st, err := s.BatchDetect()
	if err != nil {
		t.Fatal(err)
	}
	if st.Total != 0 {
		t.Fatalf("empty relation produced violations: %+v", st)
	}
	// A tiny load leaves most of the 8 shards empty (RIDs 1..3 share one
	// routing block); detection must still work end to end.
	if _, err := s.LoadData(gen.Dataset(gen.Config{Rows: 3, Noise: 5, Seed: 1})); err != nil {
		t.Fatal(err)
	}
	if _, err := s.BatchDetect(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Violations(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedDetectStress drives sharded detection cycles while reader
// goroutines gather Violations and Counts concurrently — the race
// detector's view of the scatter pool, the per-shard engines, and the
// gather merges all running at once. Every cycle lands on the same
// violation bytes.
func TestShardedDetectStress(t *testing.T) {
	s, cleanup := newShardedBench(t, 2_000, 57, ShardOptions{Shards: 4})
	defer cleanup()
	if _, err := s.BatchDetect(); err != nil {
		t.Fatal(err)
	}
	want := shardedViolationCSV(t, s)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := s.Violations(); err != nil {
					t.Error(err)
					return
				}
				if _, _, _, err := s.Counts(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for cycle := 0; cycle < 5; cycle++ {
		if _, err := s.BatchDetect(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if got := shardedViolationCSV(t, s); !bytes.Equal(got, want) {
		t.Fatalf("violations drifted across BatchDetect cycles\nfirst:\n%s\nlast:\n%s", want, got)
	}
}
