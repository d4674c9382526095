// ppmbench regenerates the paper's experiments as model counts: the
// simulation theorems (3.2–3.4), the scheduler bound (6.2), the algorithm
// bounds (7.1–7.4), the exactly-once properties of Figures 2–4 and the
// design ablations. Each experiment prints a small table and the invariant
// its rows must satisfy; `ppmbench -exp all` runs them all. Wall-clock
// speed is measured by the benchmark of record (benchmark/), not here.
//
// Experiments that drive the public ppm API honor -engine and run on the
// simulated model machine, the native goroutine backend, or both; the
// machine-level experiments (deque protocol, CAM ablation, ...) are bound to
// the model by their subject matter and are skipped under -engine=native.
//
//	go run ./cmd/ppmbench -exp e5
//	go run ./cmd/ppmbench -exp e7 -engine both
//	go run ./cmd/ppmbench -exp all
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/ppm"
)

var experiments = []struct {
	id       string
	desc     string
	portable bool // honors -engine; false = bound to the model machine
	run      func(eng ppm.Engine)
}{
	{"e1", "Theorem 3.2: RAM simulation, O(t) total work", false, runE1},
	{"e2", "Theorem 3.3: external-memory simulation, O(t) total work", false, runE2},
	{"e3", "Theorem 3.4: ideal-cache simulation, cost tracks misses", false, runE3},
	{"e4", "Figure 3/4: WS-deque exactly-once under faults", false, runE4},
	{"e5", "Theorem 6.2: scheduler time bound vs P and f", false, runE5},
	{"e6", "Section 6: hard faults, time vs dead processors", false, runE6},
	{"e7", "Theorem 7.1: prefix sum work/depth/capsule bounds", true, runE7},
	{"e8", "Theorem 7.2: merge work/capsule bounds", true, runE8},
	{"e9", "Theorem 7.3: samplesort vs mergesort work", true, runE9},
	{"e10", "Theorem 7.4: matrix multiply work scaling", true, runE10},
	{"e11", "Figure 2: CAM capsule exactly-once ownership", false, runE11},
	{"e12", "Theorems 3.1/5.1: WAR-freedom checker on seeded violations", false, runE12},
	{"a1", "Ablation: CAS- vs CAM-based steal under faults", false, runA1},
	{"a2", "Ablation: capsule granularity vs total work under faults", false, runA2},
	{"a3", "Extension: asymmetric read/write costs (paper footnote 2)", false, runA3},
}

func main() {
	exp := flag.String("exp", "", "experiment id (e1..e12, a1..a3) or 'all'")
	engineFlag := flag.String("engine", "model", "execution backend: model, native, or both")
	flag.Parse()

	engines, err := parseEngines(*engineFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *exp == "" {
		fmt.Println("usage: ppmbench -exp <id|all> [-engine model|native|both]")
		listExperiments(os.Stdout)
		os.Exit(2)
	}
	if *exp != "all" && !knownExperiment(*exp) {
		fmt.Fprintf(os.Stderr, "ppmbench: unknown experiment id %q; valid ids:\n", *exp)
		listExperiments(os.Stderr)
		os.Exit(1)
	}

	for _, e := range experiments {
		if *exp != "all" && !strings.EqualFold(*exp, e.id) {
			continue
		}
		if !e.portable {
			if !containsEngine(engines, ppm.EngineModel) {
				fmt.Printf("\n=== %s: %s ===\n(model-bound experiment, skipped under -engine=%s)\n",
					strings.ToUpper(e.id), e.desc, *engineFlag)
				continue
			}
			fmt.Printf("\n=== %s: %s ===\n", strings.ToUpper(e.id), e.desc)
			e.run(ppm.EngineModel)
			continue
		}
		for _, eng := range engines {
			fmt.Printf("\n=== %s [%s]: %s ===\n", strings.ToUpper(e.id), eng, e.desc)
			e.run(eng)
		}
	}
}

func knownExperiment(id string) bool {
	for _, e := range experiments {
		if strings.EqualFold(id, e.id) {
			return true
		}
	}
	return false
}

func listExperiments(w *os.File) {
	for _, e := range experiments {
		tag := " "
		if e.portable {
			tag = "*"
		}
		fmt.Fprintf(w, "  %-4s %s %s\n", e.id, tag, e.desc)
	}
	fmt.Fprintln(w, "  (* = honors -engine)")
}

func parseEngines(s string) ([]ppm.Engine, error) {
	if s == "both" {
		return []ppm.Engine{ppm.EngineModel, ppm.EngineNative}, nil
	}
	e, err := ppm.ParseEngine(s)
	if err != nil {
		return nil, fmt.Errorf("ppmbench: -engine must be model, native, or both: %v", err)
	}
	return []ppm.Engine{e}, nil
}

func containsEngine(es []ppm.Engine, e ppm.Engine) bool {
	for _, x := range es {
		if x == e {
			return true
		}
	}
	return false
}
