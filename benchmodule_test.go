package repro

import (
	"os/exec"
	"testing"
)

// TestBenchmarkModuleVets type-checks the benchmark of record. It is a module
// of its own (benchmark/go.mod, replacing repro by ../), so go test ./... here
// lists none of its packages, and a change to an API it calls would otherwise
// surface only when the benchmark is built.
func TestBenchmarkModuleVets(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH")
	}
	cmd := exec.Command(goTool, "vet", "./...")
	cmd.Dir = "benchmark"
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet ./... in benchmark/: %v\n%s", err, out)
	}
}
