package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ecfd/internal/core"
	"ecfd/internal/gen"
)

// TestViolationsStreamSeesWholeUpdates is the library's
// TestReadersSeeWholeUpdates over the wire: /violations streams run
// beside a writer posting 100 8+8 /updates to a 3 000-row gen session,
// with a /detect after every tenth, and every stream must hold
// exactly the violations core.NaiveDetect finds at some update boundary:
// the stream's read-only transaction pins one epoch, and no epoch shows
// half an update.
func TestViolationsStreamSeesWholeUpdates(t *testing.T) {
	const rows, updates, detectEvery = 3000, 100, 10
	cfg := gen.Config{Rows: rows, Noise: 5, Seed: 7}
	c := newTestClient(t, Options{Workers: 4})
	var sess SessionInfo
	c.mustOK("POST", "/v1/sessions", CreateSessionRequest{Gen: &GenSpec{Rows: cfg.Rows, Noise: cfg.Noise, Seed: cfg.Seed}}, &sess)
	base := "/v1/sessions/" + sess.ID
	c.mustOK("POST", base+"/detect", nil, nil)

	// The oracle at every boundary, over a mirror replaying the requests:
	// the eight oldest RIDs out, gen.Updates batch u in.
	sigma := core.Split(gen.Constraints())
	data := gen.Dataset(cfg)
	rids := make([]int64, rows)
	for i := range rids {
		rids[i] = int64(i + 1)
	}
	allowed := map[string]bool{}
	var reqs []UpdatesRequest
	for u := 0; ; u++ {
		naive, err := core.NaiveDetect(data, sigma)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for i, rid := range rids {
			if naive.SV[i] || naive.MV[i] {
				fmt.Fprintf(&b, "%d:%v:%v;", rid, naive.SV[i], naive.MV[i])
			}
		}
		allowed[b.String()] = true
		if u == updates {
			break
		}
		ins := gen.Updates(cfg, 8, int64(u))
		req := UpdatesRequest{Delete: slices.Clone(rids[:8])}
		for _, row := range ins.Rows {
			cells := make([]any, len(row))
			for j, v := range row {
				cells[j] = cellJSON(v)
			}
			req.Insert = append(req.Insert, cells)
		}
		reqs = append(reqs, req)
		data.Rows = append(slices.Clone(data.Rows[8:]), ins.Rows...)
		next := rids[len(rids)-1]
		rids = slices.Clone(rids[8:])
		for range ins.Rows {
			next++
			rids = append(rids, next)
		}
	}

	if allowed[""] {
		t.Fatal("a boundary has no violations: flags read while a detect resets them would pass")
	}

	stop := make(chan struct{})
	var reads, torn atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := c.ts.Client().Get(c.ts.URL + base + "/violations")
				if err != nil {
					t.Error(err)
					return
				}
				var stream struct {
					Rows [][]any `json:"rows"`
				}
				err = json.NewDecoder(resp.Body).Decode(&stream)
				resp.Body.Close()
				if resp.StatusCode == http.StatusTooManyRequests {
					continue
				}
				if err != nil {
					t.Errorf("violations: HTTP %d: %v", resp.StatusCode, err)
					return
				}
				var b strings.Builder
				for _, row := range stream.Rows {
					n := len(row)
					fmt.Fprintf(&b, "%d:%v:%v;", int64(row[0].(float64)), row[n-2].(float64) == 1, row[n-1].(float64) == 1)
				}
				reads.Add(1)
				if !allowed[b.String()] && torn.Add(1) <= 3 {
					t.Errorf("a /violations stream of %d rows matches no update boundary", len(stream.Rows))
				}
			}
		}()
	}
	for u, req := range reqs {
		c.mustOK("POST", base+"/updates", req, nil)
		if (u+1)%detectEvery == 0 {
			c.mustOK("POST", base+"/detect", nil, nil)
		}
	}
	close(stop)
	wg.Wait()
	t.Logf("%d streams beside %d updates, %d torn", reads.Load(), updates, torn.Load())
	if torn.Load() > 0 {
		t.Fatalf("%d of %d streams saw no update boundary", torn.Load(), reads.Load())
	}
}
