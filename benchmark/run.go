package main

import (
	"fmt"
	"math"
	"runtime"
	"time"
)

// runConfig is what one run of one workload is given.
type runConfig struct {
	seed    int64
	seconds float64
	warm    float64
	quick   bool
	trace   bool
	outDir  string
}

// rows scales a workload's table for -quick.
func (c runConfig) rows(full int) int {
	if c.quick {
		return full / 5
	}
	return full
}

// window is what driving a workload for some time produced.
type window struct {
	seconds   float64  // from the first op's start to the last op's end
	samples   []sample // the workload's ops; on serve_mixed_10k the reads
	writes    []sample // updates, timed from their due time
	lagMS     []float64
	attempted int64
	failed    int64 // errors, non-200 answers, answers the oracle rejects
	rejected  int64 // 429 among failed
	deadline  int64 // 504 among failed
	pageRows  int64

	// The reference timed beside the ops (see ref.go): its nominal time,
	// what one call allocates, and how many clients took turns with it.
	ref          refClock
	refNominalMS float64
	refAllocPer  float64
	clients      int
}

// busySeconds is the window less the time each client spent in the
// reference instead of the workload.
func (w *window) busySeconds() float64 { return w.seconds - w.ref.seconds/float64(w.clients) }

func (w *window) merge(o *window) {
	w.samples = append(w.samples, o.samples...)
	w.writes = append(w.writes, o.writes...)
	w.lagMS = append(w.lagMS, o.lagMS...)
	w.attempted += o.attempted
	w.failed += o.failed
	w.rejected += o.rejected
	w.deadline += o.deadline
	w.pageRows += o.pageRows
	w.ref.merge(o.ref)
}

// instance is a workload that has been set up and can serve ops.
type instance interface {
	// prepare builds, untimed, what the run needs but a user would not
	// wait for: oracle expectations and pre-marshaled request bodies.
	prepare() error
	// run drives the workload for d. With a tracer, every second op is
	// recorded as a span and marked traced.
	run(d time.Duration, tr *tracer) *window
	// verify compares the end state with the oracle.
	verify() error
	close()
}

// workload binds a name to its cold set-up and to why it was chosen.
type workload struct {
	name  string
	tailP float64 // the tail percentile its sample count supports
	setup func(cfg runConfig) (instance, error)
	why   string
}

var workloads = []workload{
	{"batch_40k", 0.90, func(c runConfig) (instance, error) { return setupLib(c, false) },
		"Library BatchDetect over 40000 rows, one goroutine, closed loop: the sqldb executor does nearly all the work, server none. The paper's Fig. 5 unit."},
	{"inc_40k", 0.90, func(c runConfig) (instance, error) { return setupLib(c, true) },
		"ApplyUpdates of 8 inserts + 8 deletes on the same 40000 rows, |D| constant: DML, index and column-cache upkeep, MVCC copy-on-write. The write gap of ROADMAP item 2."},
	{"serve_check_10k", 0.95, func(c runConfig) (instance, error) { return setupServe(c, false) },
		"POST check of 8 tuples over loopback HTTP on a 10000-row session, nproc/2 closed-loop clients: per-request and per-statement overhead (HTTP, JSON, driver, plan cache), not scan volume."},
	{"serve_mixed_10k", 0.95, func(c runConfig) (instance, error) { return setupServe(c, true) },
		"7 checks : 1 bounded violations page from nproc/2 closed-loop readers beside one open-loop writer at 2 updates/s: epoch turnover, admission and snapshot pins under a write stream."},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// outcome is one run's result line.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// coldSetups sets the workload up setupReps times from nothing, closes
// all but the last, and returns that one with each set-up's seconds and
// the reference timed before each.
func coldSetups(wl workload, cfg runConfig) (instance, []float64, *refClock, error) {
	var inst instance
	var secs []float64
	ref := &refClock{}
	for i := 0; i < setupReps; i++ {
		if inst != nil {
			inst.close()
			inst = nil
		}
		// The reference and the set-up each start from an empty heap,
		// like the first: what the last instance left behind is collected
		// on nobody's clock.
		runtime.GC()
		for j := 0; j < setupRefCalls; j++ {
			ref.time(refKernel)
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if inst, err = wl.setup(cfg); err != nil {
			return nil, nil, nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return inst, secs, ref, nil
}

// runEndToEnd is the untraced run: cold set-ups, warm-up, one measured
// window, the oracle check, and the end-to-end metrics.
func runEndToEnd(wl workload, cfg runConfig) (*outcome, error) {
	inst, setups, setupRef, err := coldSetups(wl, cfg)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	if err := inst.prepare(); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	inst.run(seconds(cfg.warm), nil)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	win := inst.run(seconds(cfg.seconds), nil)
	runtime.ReadMemStats(&after)
	allocBytes := after.TotalAlloc - before.TotalAlloc
	runtime.GC()
	runtime.ReadMemStats(&after)

	out := &outcome{Correct: true, Attempted: win.attempted, Failed: win.failed}
	if err := inst.verify(); err != nil {
		// The end state is wrong, so no op of the window can be trusted.
		fmt.Printf("VERIFY FAILED: %v\n", err)
		out.Correct, out.Failed = false, win.attempted
	}
	if out.Failed > 0 {
		out.Correct = false
	}

	// Wall-clock metrics are reported as on the quiet host: scaled by
	// what the reference, timed beside the ops, says about this run.
	lat := sortedCopy(latencies(win.samples, nil))
	ops := math.Max(1, float64(len(win.samples)+len(win.writes)))
	verified := float64(out.Attempted - out.Failed)
	k, kSetup := win.ref.scale(win.refNominalMS), setupRef.scale(refIdleNominalMS)
	refAlloc := float64(win.ref.calls) * win.refAllocPer
	out.Metrics = map[string]metric{
		"setup_s":         {median(setups) * kSetup, "s"},
		"op_ms_p50":       {percentile(lat, 0.5) * k, "ms"},
		"op_ms_tail":      {percentile(lat, wl.tailP) * k, "ms"},
		"ops_per_s":       {verified / win.busySeconds() / k, "1/s"},
		"live_heap_mb":    {float64(after.HeapAlloc) / (1 << 20), "MB"},
		"alloc_kb_per_op": {(float64(allocBytes) - refAlloc) / 1024 / ops, "kB"},
	}

	fmt.Printf("workload %s  seed %d  window %.1fs  ops %d  failed %d\n",
		wl.name, cfg.seed, win.seconds, len(lat), out.Failed)
	fmt.Printf("  op_ms_tail is p%.0f over %d samples, %d beyond it", wl.tailP*100, len(lat), samplesBeyond(len(lat), wl.tailP))
	if samplesBeyond(len(lat), wl.tailP) < minBeyond {
		fmt.Printf("  (UNSUPPORTED: fewer than %d)", minBeyond)
	}
	fmt.Println()
	if sub := subWindowMedians(win.samples, win.seconds, subWindows); len(sub) >= 2 {
		q1, q2, q3 := quartiles(sub)
		fmt.Printf("  sub-window p50s %s  quartiles %.4f / %.4f / %.4f ms  spread %.3f\n",
			fmtFloats(sub), q1, q2, q3, (q3-q1)/q2)
	}
	if len(win.writes) > 0 {
		fmt.Printf("  writes %d  write_ms_p50 %.4f ms from due time  lag p50 %.4f ms\n",
			len(win.writes), median(latencies(win.writes, nil)), median(win.lagMS))
	}
	fmt.Printf("  set-ups %s s\n", fmtFloats(setups))
	fmt.Printf("  reference p50 %.4f ms over %d calls (%.2f when the host is quiet): times x%.4f; before set-ups %.4f ms (%.2f): x%.4f\n",
		median(win.ref.ms), len(win.ref.ms), win.refNominalMS, k, median(setupRef.ms), refIdleNominalMS, kSetup)
	fmt.Printf("  as measured: setup_s %.4f  op_ms_p50 %.4f  op_ms_tail %.4f  ops_per_s %.4f\n",
		median(setups), percentile(lat, 0.5), percentile(lat, wl.tailP), verified/win.busySeconds())
	return out, nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func fmtFloats(xs []float64) string {
	s := "["
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.4g", x)
	}
	return s + "]"
}
