package main

import (
	"fmt"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/ppm"
)

// TestExperimentIDs pins the experiment list: the paper's e1–e12 and the
// ablations a1–a3, in that order, each accepted in either case, and no id
// outside that list.
func TestExperimentIDs(t *testing.T) {
	var want []string
	for i := 1; i <= 12; i++ {
		want = append(want, fmt.Sprintf("e%d", i))
	}
	want = append(want, "a1", "a2", "a3")
	var got []string
	for _, e := range experiments {
		got = append(got, e.id)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("experiments = %v, want %v", got, want)
	}
	for _, id := range want {
		if !knownExperiment(id) || !knownExperiment(strings.ToUpper(id)) {
			t.Errorf("knownExperiment rejects %q", id)
		}
	}
	for _, id := range []string{"", "all", "e13", "a4", "cat", "fault", "graph"} {
		if knownExperiment(id) {
			t.Errorf("knownExperiment accepts %q", id)
		}
	}
}

// TestParseEngines checks the values -engine accepts and what each selects.
func TestParseEngines(t *testing.T) {
	cases := []struct {
		flag string
		want []ppm.Engine
	}{
		{"model", []ppm.Engine{ppm.EngineModel}},
		{"native", []ppm.Engine{ppm.EngineNative}},
		{"both", []ppm.Engine{ppm.EngineModel, ppm.EngineNative}},
		{"gpu", nil},
	}
	for _, c := range cases {
		c := c
		t.Run(c.flag, func(t *testing.T) {
			got, err := parseEngines(c.flag)
			if c.want == nil {
				if err == nil {
					t.Fatalf("parseEngines(%q) = %v, want an error", c.flag, got)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Errorf("parseEngines(%q) = %v, want %v", c.flag, got, c.want)
			}
		})
	}
}

// TestLightExperimentsRun runs the experiments whose machines stay small
// (under ~130 MB each) and checks each reaches its check line without
// printing a failure marker. The algorithm and scheduler sweeps (e5–e10,
// a2, a3) build 2^25-word memories; `ppmbench -exp all` runs those.
func TestLightExperimentsRun(t *testing.T) {
	light := map[string]bool{"e1": true, "e2": true, "e3": true, "e4": true,
		"e11": true, "e12": true, "a1": true}
	for _, e := range experiments {
		e := e
		if !light[e.id] {
			continue
		}
		t.Run(e.id, func(t *testing.T) {
			out := captureStdout(t, func() { e.run(ppm.EngineModel) })
			if !strings.Contains(out, "check:") {
				t.Errorf("no check line in output:\n%s", out)
			}
			for _, bad := range []string{"FAILED", "WRONG OUTPUT", "VIOLATION", "/BAD", "false/"} {
				if strings.Contains(out, bad) {
					t.Errorf("output reports %q:\n%s", bad, out)
				}
			}
		})
	}
}

// captureStdout returns what f prints to os.Stdout.
func captureStdout(t *testing.T, f func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	old := os.Stdout
	os.Stdout = w
	func() {
		defer func() { os.Stdout = old }()
		f()
	}()
	w.Close()
	return <-done
}
