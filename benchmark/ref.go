package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"time"
)

// The host this benchmark was written on drifts: for tens of minutes at
// a time everything runs 20–50% slower (the service workloads up to 3×),
// with no steal time reported. Medians of ten runs of unchanged code,
// taken an hour apart, differed by a third — more than any bound the
// contract allows — and no window that fits the run-time cap averages
// that out. So every run times a reference beside its ops: fixed work
// that belongs to the benchmark and uses only the standard library, so
// no change to the repository can move it. The wall-clock metrics are
// reported scaled by nominal ÷ measured reference time — milliseconds
// as they would read on this host when it is quiet — and the report
// prints them as measured too.
//
// Two references, because a slow phase hits the two kinds of workload
// differently: the library workloads hash, allocate and miss caches
// like refKernel; the service workloads live in net/http, the scheduler
// and loopback TCP like a ping of the reference server. The scaling is a first-
// order correction, not an exact one: a reference never slows by quite
// the same share as the op, and it shares the garbage collector with
// the system under test. README.md, "Repeatability", has the figures.

const (
	refKernelNominalMS = 7.0  // refKernel between ops on this host when it is quiet
	refIdleNominalMS   = 8.6  // refKernel on an idle process and an empty heap, likewise
	refPingNominalMS   = 0.11 // a ping between requests, likewise
)

var refSink int

// refWork is the reference computation: n formatted keys into a map,
// then a sort — hashing, allocation and cache misses in roughly the
// engine's proportions.
func refWork(n int) {
	m := make(map[string]int, n/4)
	keys := make([]string, 0, n)
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("%09d|%d", i*7919%100003, i%97)
		keys = append(keys, k)
		m[k] += i
	}
	sort.Strings(keys)
	refSink += len(m) + len(keys[0])
}

// refKernel is the library reference, about 7 ms.
func refKernel() { refWork(20000) }

// refClock collects reference timings beside a stream of ops.
type refClock struct {
	ms      []float64
	calls   int     // every call allocates, whether or not its time is kept
	seconds float64 // spent in the reference: not the workload's time
}

func (r *refClock) time(fn func()) {
	t0 := time.Now()
	fn()
	r.add(time.Since(t0), true)
}

func (r *refClock) add(d time.Duration, keep bool) {
	r.calls++
	r.seconds += d.Seconds()
	if keep {
		r.ms = append(r.ms, ms(d))
	}
}

func (r *refClock) merge(o refClock) {
	r.ms = append(r.ms, o.ms...)
	r.calls += o.calls
	r.seconds += o.seconds
}

// scale is what a wall-clock time of this run is multiplied by.
func (r *refClock) scale(nominalMS float64) float64 {
	if len(r.ms) == 0 {
		return 1
	}
	return nominalMS / median(r.ms)
}

// allocPer measures, with nothing else running, the bytes fn allocates
// per call, so that the reference's share can be taken out of
// alloc_kb_per_op.
func allocPer(fn func()) float64 {
	const calls = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / calls
}

// startRefServer boots the service reference: a handler of the
// benchmark's own that decodes a rows payload, does a sliver of refWork
// and answers with a count, behind its own net/http server on loopback.
func startRefServer() (*loopback, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /ping", func(w http.ResponseWriter, r *http.Request) {
		var in struct {
			Rows [][]any `json:"rows"`
		}
		if err := json.NewDecoder(r.Body).Decode(&in); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		refWork(128)
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]int{"rows": len(in.Rows)})
	})
	return listenLoopback(mux)
}
