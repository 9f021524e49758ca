package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// header identifies what a result was measured on.
type header struct {
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Quick      bool    `json:"quick"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPU        string  `json:"cpu"`
	Go         string  `json:"go"`
}

func newHeader(cfg runConfig) header {
	h := header{Commit: "unknown", Seed: cfg.seed, Seconds: cfg.seconds, Quick: cfg.quick, CPU: "unknown",
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// child runs one workload in a process of its own — workloads sharing
// a heap inflate each other's GC pacing — and returns its result line.
// The child's report is passed through.
func child(cfg runConfig, name string, traced bool) (*outcome, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-workload", name, "-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds), "-trace", "0"}
	if traced {
		args[len(args)-1] = "1"
	}
	if cfg.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	runErr := cmd.Run()
	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if last != "" {
			fmt.Println(last)
		}
		last = sc.Text()
	}
	var out outcome
	if err := json.Unmarshal([]byte(last), &out); err != nil {
		fmt.Println(last)
		return nil, fmt.Errorf("%s: no result line (%v)", name, runErr)
	}
	return &out, nil
}

// runAll is the command without -workload: every workload end to end,
// the traced runs too with -trace 1, a table, and out/result.json.
func runAll(cfg runConfig, selfcheck bool) error {
	h := newHeader(cfg)
	fmt.Printf("commit %s  seed %d  nproc %d  GOMAXPROCS %d  %s  %s\n\n", h.Commit, h.Seed, h.NumCPU, h.GOMAXPROCS, h.CPU, h.Go)
	type entry struct {
		EndToEnd *outcome `json:"end_to_end"`
		Repeat   *outcome `json:"repeat,omitempty"`
		PerLayer *outcome `json:"per_layer,omitempty"`
	}
	results := make(map[string]*entry)
	ok := true
	passes := []struct {
		on   bool
		keep func(*entry, *outcome)
		tr   bool
	}{
		{true, func(e *entry, o *outcome) { e.EndToEnd = o }, false},
		{selfcheck, func(e *entry, o *outcome) { e.Repeat = o }, false},
		{cfg.trace, func(e *entry, o *outcome) { e.PerLayer = o }, true},
	}
	for _, pass := range passes {
		if !pass.on {
			continue
		}
		for _, wl := range workloads {
			out, err := child(cfg, wl.name, pass.tr)
			if err != nil {
				return err
			}
			fmt.Println()
			if results[wl.name] == nil {
				results[wl.name] = &entry{}
			}
			pass.keep(results[wl.name], out)
			ok = ok && out.Correct
		}
	}

	fmt.Printf("%-18s", "end to end")
	for _, wl := range workloads {
		fmt.Printf(" %16s", wl.name)
	}
	fmt.Println()
	for _, m := range endToEnd {
		fmt.Printf("%-12s %-5s", m.Name, m.Unit)
		for _, wl := range workloads {
			fmt.Printf(" %16.4f", results[wl.name].EndToEnd.Metrics[m.Name].Value)
		}
		fmt.Println()
	}
	fmt.Printf("%-18s", "failed/attempted")
	for _, wl := range workloads {
		o := results[wl.name].EndToEnd
		fmt.Printf(" %16s", fmt.Sprintf("%d/%d", o.Failed, o.Attempted))
	}
	fmt.Println()
	if cfg.trace {
		fmt.Printf("\n%-36s", "per layer")
		for _, wl := range workloads {
			fmt.Printf(" %16s", wl.name)
		}
		fmt.Println()
		for _, m := range perLayer {
			fmt.Printf("%-30s %-5s", m.Name, m.Unit)
			for _, wl := range workloads {
				fmt.Printf(" %16.4f", results[wl.name].PerLayer.Metrics[m.Name].Value)
			}
			fmt.Println()
		}
	}

	if selfcheck {
		// Two sets of runs of the same code must agree within the bounds
		// the benchmark holds later changes to.
		fmt.Printf("\nselfcheck: |second - first| / first, against the bound\n")
		for _, m := range endToEnd {
			for _, wl := range workloads {
				a := results[wl.name].EndToEnd.Metrics[m.Name].Value
				b := results[wl.name].Repeat.Metrics[m.Name].Value
				diff := math.Abs(b-a) / a
				verdict := "ok"
				if diff > *m.Bound {
					verdict, ok = "EXCEEDS", false
				}
				fmt.Printf("  %-16s %-16s %12.4f %12.4f  %6.3f  bound %.2f  %s\n", m.Name, wl.name, a, b, diff, *m.Bound, verdict)
			}
		}
	}

	data, err := json.MarshalIndent(struct {
		Header    header            `json:"header"`
		Workloads map[string]*entry `json:"workloads"`
	}{h, results}, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(cfg.outDir, "result.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s\n", path)
	if !ok {
		return fmt.Errorf("a workload failed its oracle check or the selfcheck")
	}
	return nil
}
