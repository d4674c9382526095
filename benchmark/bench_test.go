package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"sort"
	"testing"
	"time"
)

// toySizes run every workload in a fraction of a second. They exist so that
// `go test` keeps the harness compiling, running and verifying; nothing
// measured at these sizes means anything.
var toySizes = sizes{
	randN: 2000, randM: 8000,
	gridN:    1024,
	arrayN:   1 << 14,
	durableN: 2000, durableM: 8000,
	serveN: 2000, serveM: 4000,
	batchEdges:  16,
	sourcePool:  4,
	mutateEvery: 100,
	minPasses:   2,
	setups:      2,
	controlReps: 2,
	probeWords:  1 << 12,
	probeLeaves: 1 << 8,
	modelN:      2048,
	calibIters:  10_000,
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func names(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.Name)
	}
	sort.Strings(out)
	return out
}

// TestEveryWorkloadRunsAndVerifies runs each workload untraced and traced at
// toy sizes and holds what it emits against the metric tables in both
// directions. It also requires that a run leaves nothing behind: no region
// file, no temporary directory, no goroutine.
func TestEveryWorkloadRunsAndVerifies(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	goroutines := runtime.NumGoroutine()

	units := map[string]string{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		units[d.Name] = d.Unit
	}
	perLayerSeen := map[string]bool{}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: w.Name, seed: 3, procs: 2, seconds: 0.3, trace: traced}
			rep, spans, err := runWorkload(cfg, toySizes)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if rep.Failed != 0 || rep.Attempted == 0 {
				t.Fatalf("%s traced=%v: %d of %d operations failed: %v", w.Name, traced, rep.Failed, rep.Attempted, rep.Reasons)
			}
			if traced != (spans != nil) {
				t.Fatalf("%s traced=%v: spans recorded = %v", w.Name, traced, spans != nil)
			}
			emitted := map[string]float64{}
			for _, r := range rep.Rows {
				if r.Workload != w.Name || !nameRE.MatchString(r.Name) || r.Unit == "" || r.N < 1 {
					t.Errorf("%s: malformed row %+v", w.Name, r)
				}
				if r.Unit != units[r.Name] {
					t.Errorf("%s: %s reported in %q, the tables say %q", w.Name, r.Name, r.Unit, units[r.Name])
				}
				if _, twice := emitted[r.Name]; twice {
					t.Errorf("%s traced=%v: %s emitted twice", w.Name, traced, r.Name)
				}
				emitted[r.Name] = r.Value
			}
			if !traced {
				// Every workload reports every end-to-end metric, none of them 0.
				for _, d := range endToEnd {
					if v, ok := emitted[d.Name]; !ok || v == 0 {
						t.Errorf("%s: end-to-end metric %s = %v, emitted = %v", w.Name, d.Name, v, ok)
					}
					delete(emitted, d.Name)
				}
			}
			// Whatever else a run emits is a per-layer metric by name.
			for name := range emitted {
				perLayerSeen[name] = true
			}
			if traced {
				if len(spans.spans) == 0 {
					t.Errorf("%s: a traced run recorded no spans", w.Name)
				}
				for _, s := range spans.spans {
					if s.End < s.Start || s.Parent >= s.ID {
						t.Fatalf("%s: malformed span %+v", w.Name, s)
					}
				}
			}
		}
	}
	var seen []string
	for name := range perLayerSeen {
		seen = append(seen, name)
	}
	sort.Strings(seen)
	if want := names(perLayer); !reflect.DeepEqual(seen, want) {
		t.Errorf("per-layer metrics emitted by some workload:\n%v\nper-layer table:\n%v", seen, want)
	}

	if left, _ := os.ReadDir(tmp); len(left) != 0 {
		t.Errorf("%d entries left in the temporary directory, first %s", len(left), left[0].Name())
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > goroutines {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines before, %d after:\n%s", goroutines, now, buf[:runtime.Stack(buf, true)])
	}
}

// TestContractFile holds BENCHMARK.json against the tables. Run with
// UPDATE_CONTRACT=1 to write the file from them.
func TestContractFile(t *testing.T) {
	const path = "../BENCHMARK.json"
	want := theContract()
	if os.Getenv("UPDATE_CONTRACT") != "" {
		if err := writeJSON(path, want); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got contract
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from the tables in metrics.go; UPDATE_CONTRACT=1 go test -run TestContractFile rewrites it")
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(data))
	}
	if n := len(got.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	used := map[string]bool{}
	for _, list := range [][]string{workloadNames, names(endToEnd), names(perLayer)} {
		for _, name := range list {
			if !nameRE.MatchString(name) || used[name] {
				t.Errorf("name %q is malformed or used twice", name)
			}
			used[name] = true
		}
	}
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !unitRE.MatchString(d.Unit) || (d.Better != lower && d.Better != higher) || d.Bound < 0 || d.Bound > 0.25 {
			t.Errorf("malformed metric %+v", d)
		}
	}
	for _, w := range workloads {
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
}

// TestContractLine checks the driver-facing result: exactly the end-to-end
// keys untraced, exactly the per-layer keys traced, absent ones reading 0.
func TestContractLine(t *testing.T) {
	rep := &report{Attempted: 5, Failed: 1, Rows: []row{
		{Name: "qps", Value: 12.5, Unit: "ops/s"}, {Name: "bfs_ms", Value: 3, Unit: "ms"}}}
	for _, traced := range []bool{false, true} {
		var line struct {
			Correct   bool
			Attempted int64
			Failed    int64
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(contractLine(rep, traced)), &line); err != nil {
			t.Fatal(err)
		}
		want := names(endToEnd)
		if traced {
			want = names(perLayer)
		}
		var got []string
		for name := range line.Metrics {
			got = append(got, name)
		}
		sort.Strings(got)
		if !reflect.DeepEqual(got, want) || line.Correct || line.Attempted != 5 || line.Failed != 1 {
			t.Errorf("traced=%v: %+v", traced, line)
		}
		if !traced && (line.Metrics["qps"].Value != 12.5 || line.Metrics["p50_ms"].Unit != "ms") {
			t.Errorf("untraced metrics: %+v", line.Metrics)
		}
		if traced && (line.Metrics["bfs_ms"].Value != 3 || line.Metrics["cc_ms"].Value != 0) {
			t.Errorf("traced metrics: %+v", line.Metrics)
		}
	}
}

func TestParseFlags(t *testing.T) {
	// The contract's driver: two dashes, and -trace with its value apart.
	c, err := parseFlags([]string{"--workload", "serve-rw", "--seed", "7", "--seconds", "10", "--trace", "1"})
	if err != nil || c.workload != "serve-rw" || c.seed != 7 || c.seconds != 10 || !c.trace {
		t.Fatalf("driver form: %+v, %v", c, err)
	}
	if c, err = parseFlags([]string{"--trace", "0", "-workload", "forkjoin"}); err != nil || c.trace || c.workload != "forkjoin" {
		t.Fatalf("trace 0: %+v, %v", c, err)
	}
	if c, err = parseFlags([]string{"-workload", "all", "-trace", "-check"}); err != nil || !c.trace || !c.check {
		t.Fatalf("switch form: %+v, %v", c, err)
	}
	for _, bad := range [][]string{{"-workload", "nope"}, {"-procs", "0"}, {"-seconds", "0"}, {"stray"}} {
		if _, err := parseFlags(bad); err == nil {
			t.Errorf("%v accepted", bad)
		}
	}
}

func TestSampleSummaries(t *testing.T) {
	for n, want := range map[int]float64{5: 0, 19: 0, 20: 50, 40: 75, 100: 90, 1000: 99, 10000: 99.9} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %v, want %v", n, got, want)
		}
	}
	s := series{4e6, 1e6, 3e6, 2e6, 5e6}
	r := s.timing("x_ms", inMS)
	if r.Value != 3 || r.Q1 != 2 || r.Q3 != 4 || r.N != 5 || r.Unit != "ms" || r.TailPct != 0 {
		t.Errorf("timing = %+v", r)
	}
	if got := worsening("qps", 100, 90); got != 0.1 {
		t.Errorf("qps 100 -> 90 worsens by %v", got)
	}
	if got := worsening("p50_ms", 100, 90); got != -0.1 {
		t.Errorf("p50_ms 100 -> 90 worsens by %v", got)
	}
	if got := worsening("fail_share", 0, 0.5); got != 0.5 {
		t.Errorf("fail_share 0 -> 0.5 worsens by %v", got)
	}
}
