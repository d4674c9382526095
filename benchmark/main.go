// Command benchmark is the repository's benchmark of record: six named
// workloads over the native engine, the graph kernels, durable regions and
// the query server, each checked against plain-Go baselines. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	procs    int
	seconds  float64
	trace    bool
	out      string
	traceOut string
	check    bool
}

// sizes are the input sizes and cadences of the workloads. They are
// constants of the benchmark — the same work on both sides of any later
// comparison — and a struct only so the smoke test can run toy ones.
type sizes struct {
	randN, randM       int // graph-rand
	gridN              int // graph-grid
	arrayN             int // forkjoin
	durableN, durableM int // graph-durable
	serveN, serveM     int // serve-hot, serve-rw
	batchEdges         int // edges per mutation batch
	sourcePool         int // BFS sources the serve clients draw from
	mutateEvery        int // serve-rw: every k-th operation is a mutation
	minPasses          int // batch workloads: passes measured at least
	setups             int // times the set-up is repeated for setup_s
	controlReps        int // reps of each kernel in a control pass
	probeWords         int // array length of the accessor probes
	probeLeaves        int // leaves of the spawn/join probes
	modelN             int // mergesort size on the model engine
	calibIters         int // iterations of the calibration loop
}

var fullSizes = sizes{
	randN: 100000, randM: 400000,
	gridN:    16384,
	arrayN:   1 << 22,
	durableN: 32768, durableM: 131072,
	serveN: 32768, serveM: 65536,
	batchEdges:  64,
	sourcePool:  16,
	mutateEvery: 800,
	minPasses:   10,
	setups:      3,
	controlReps: 5,
	probeWords:  1 << 20,
	probeLeaves: 1 << 18,
	modelN:      65536,
	calibIters:  600_000,
}

// defaultSeconds is run_seconds of BENCHMARK.json.
const defaultSeconds = 10

// budget is how long a workload's measured phase lasts.
func (c config) budget() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// bench is the state of one workload's run.
type bench struct {
	cfg  config
	sz   sizes
	led  ledger
	tr   *tracer // nil unless this is a traced run
	rows []row
	tmp  string // the run's own directory for region files

	setupClock   time.Duration // time spent in calls into the system since reset
	regions      int
	calibrations series // every calibration of the run, see calib.go
}

// call times one call into a layer. It is the only way set-up reaches the
// system, so setup_s is the sum of these calls and leaves out the
// benchmark's own work (drawing inputs, computing baselines); in a traced
// run the call is also a span.
func (b *bench) call(layer, name string, parent int, fn func()) time.Duration {
	id := b.tr.begin(layer, name, parent, 0)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	b.tr.end(id)
	b.setupClock += d
	return d
}

func (b *bench) add(rows ...row) {
	for _, r := range rows {
		r.Workload = b.cfg.workload
		b.rows = append(b.rows, r)
	}
}

// report is what -out writes and what the parent of a re-executed workload
// reads back.
type report struct {
	Env       environment `json:"env"`
	Attempted int64       `json:"attempted"`
	Failed    int64       `json:"failed"`
	Reasons   []string    `json:"failures,omitempty"`
	Rows      []row       `json:"rows"`
}

// environment is recorded with every result, because none of the numbers
// mean anything without it.
type environment struct {
	Cores      int     `json:"cores"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Procs      int     `json:"procs"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	TempDir    string  `json:"tempdir"`
	TempFS     string  `json:"tempfs"`
}

func (c config) environment() environment {
	e := environment{Cores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Procs: c.procs, Go: runtime.Version(), Commit: "unknown", Seed: c.seed,
		Seconds: c.seconds, TempDir: os.TempDir(), TempFS: fsType(os.TempDir())}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				e.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					e.Commit += "+dirty"
				}
			}
		}
	}
	return e
}

func (e environment) String() string {
	return fmt.Sprintf("env cores=%d gomaxprocs=%d procs=%d go=%s commit=%s seed=%d seconds=%g tempdir=%s tempfs=%s",
		e.Cores, e.GOMAXPROCS, e.Procs, e.Go, e.Commit, e.Seed, e.Seconds, e.TempDir, e.TempFS)
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	if err := cfg.run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// parseFlags accepts the flags with one or two dashes, and -trace both as a
// switch and with a 0/1 value in the next argument, which is how the
// contract's driver passes it.
func parseFlags(args []string) (config, error) {
	for i := 0; i+1 < len(args); i++ {
		if (args[i] == "-trace" || args[i] == "--trace") && (args[i+1] == "0" || args[i+1] == "1") {
			args = append(append(append([]string{}, args[:i]...), "-trace="+args[i+1]), args[i+2:]...)
		}
	}
	var c config
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.StringVar(&c.workload, "workload", "all", "workload name, or all: "+strings.Join(workloadNames, ", "))
	fs.Uint64Var(&c.seed, "seed", 1, "seed of every generated input")
	fs.IntVar(&c.procs, "procs", min(runtime.NumCPU(), 4), "P of every runtime and the number of closed-loop clients")
	fs.Float64Var(&c.seconds, "seconds", defaultSeconds, "seconds each workload measures")
	fs.BoolVar(&c.trace, "trace", false, "traced run: per-layer metrics in place of the end-to-end ones")
	fs.StringVar(&c.out, "out", "", "write the results as JSON to this file")
	fs.StringVar(&c.traceOut, "trace-out", "", "write the spans of a traced run to this file")
	fs.BoolVar(&c.check, "check", false, "run the selected workloads twice and compare against the bounds")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	if fs.NArg() > 0 {
		return c, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if c.procs < 1 || c.seconds <= 0 {
		return c, errors.New("-procs must be at least 1 and -seconds positive")
	}
	if c.workload != "all" && !slices.Contains(workloadNames, c.workload) {
		return c, fmt.Errorf("unknown workload %q; valid: all, %s", c.workload, strings.Join(workloadNames, ", "))
	}
	return c, nil
}

func (c config) run() error {
	if c.check {
		return c.runCheck()
	}
	if c.workload == "all" {
		return c.runAll()
	}
	rep, spans, err := runWorkload(c, fullSizes)
	if err != nil {
		return err
	}
	fmt.Println(rep.Env)
	for _, r := range rep.Rows {
		fmt.Println(r)
	}
	for _, why := range rep.Reasons {
		fmt.Println("failure:", why)
	}
	if c.out != "" {
		if err := writeJSON(c.out, rep); err != nil {
			return err
		}
	}
	if spans != nil && c.traceOut != "" {
		if err := spans.flush(c.traceOut); err != nil {
			return err
		}
	}
	// The contract's result line, last on standard output.
	fmt.Println(contractLine(rep, c.trace))
	if rep.Failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed", c.workload, rep.Failed, rep.Attempted)
	}
	return nil
}

// runWorkload runs one workload in this process and returns its report.
func runWorkload(c config, z sizes) (*report, *tracer, error) {
	tmp, err := os.MkdirTemp("", "ppm-benchmark-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(tmp)
	b := &bench{cfg: c, sz: z, tmp: tmp}
	if c.trace {
		b.tr = newTracer()
	}
	for _, w := range z.batchSpecs() {
		if w.name == c.workload {
			err = b.runBatch(w)
		}
	}
	if strings.HasPrefix(c.workload, "serve-") {
		err = b.runServe(c.workload == "serve-rw")
	}
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", c.workload, err)
	}
	attempted, failed := b.led.attempted.Load(), b.led.failed.Load()
	b.add(ratio("fail_share", float64(failed), float64(attempted), "attempted", inCount),
		b.calibrations.timing("calibration_ms", inMS))
	if !c.trace {
		b.add(scalar("rss_mb", peakRSSMB(), "MB"))
	}
	return &report{Env: c.environment(), Attempted: attempted, Failed: failed,
		Reasons: b.led.reasons, Rows: b.rows}, b.tr, nil
}

// contractLine is the one-object result the contract's driver reads: the
// end-to-end metrics of an untraced run, the per-layer metrics of a traced
// one. A per-layer metric the workload does not cross reads 0.
func contractLine(rep *report, traced bool) string {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		metrics[d.Name] = value{Unit: d.Unit}
	}
	for _, r := range rep.Rows {
		if _, ok := metrics[r.Name]; ok {
			metrics[r.Name] = value{Value: r.Value, Unit: r.Unit}
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   rep.Failed == 0,
		"attempted": rep.Attempted,
		"failed":    rep.Failed,
		"metrics":   metrics,
	})
	if err != nil {
		panic(err) // a NaN metric: a series that was never sampled
	}
	return string(line)
}

// runAll re-executes this binary once per workload, one after another, so
// that peak RSS and garbage-collector state are each workload's own.
func (c config) runAll() error {
	var all report
	var failed []string
	for _, name := range workloadNames {
		rep, err := c.reexec(name, os.Stdout)
		if err != nil {
			failed = append(failed, name)
			fmt.Fprintln(os.Stderr, "benchmark:", err)
		}
		if rep != nil {
			all.Env = rep.Env
			all.Attempted += rep.Attempted
			all.Failed += rep.Failed
			all.Reasons = append(all.Reasons, rep.Reasons...)
			all.Rows = append(all.Rows, rep.Rows...)
		}
	}
	if c.out != "" {
		if err := writeJSON(c.out, &all); err != nil {
			return err
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("workloads failed: %s", strings.Join(failed, ", "))
	}
	return nil
}

// reexec runs one workload in a child process, its standard output going to
// stdout, and reads its report back.
func (c config) reexec(name string, stdout io.Writer) (*report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	f, err := os.CreateTemp("", "ppm-benchmark-*.json")
	if err != nil {
		return nil, err
	}
	f.Close()
	defer os.Remove(f.Name())
	args := []string{"-workload", name, "-seed", fmt.Sprint(c.seed), "-procs", fmt.Sprint(c.procs),
		"-seconds", fmt.Sprint(c.seconds), "-out", f.Name()}
	if c.trace {
		args = append(args, "-trace")
		if c.traceOut != "" {
			args = append(args, "-trace-out", perWorkloadPath(c.traceOut, name))
		}
	}
	cmd := exec.Command(self, args...)
	cmd.Stdout, cmd.Stderr = stdout, os.Stderr
	runErr := cmd.Run()
	var rep report
	data, err := os.ReadFile(f.Name())
	if err == nil && len(data) > 0 {
		err = json.Unmarshal(data, &rep)
	}
	if err != nil || len(data) == 0 {
		return nil, fmt.Errorf("%s: no report (%v)", name, errors.Join(runErr, err))
	}
	if runErr != nil {
		return &rep, fmt.Errorf("%s: %w", name, runErr)
	}
	return &rep, nil
}

// perWorkloadPath turns spans.json into spans.<workload>.json.
func perWorkloadPath(path, name string) string {
	if i := strings.LastIndexByte(path, '.'); i > strings.LastIndexByte(path, '/') {
		return path[:i] + "." + name + path[i:]
	}
	return path + "." + name
}

// runCheck runs each selected workload twice with the same seed and holds
// every bounded metric of the second run against the first. It is how the
// run-to-run agreement the bounds assume is shown before anyone claims a
// change moved a number.
func (c config) runCheck() error {
	names := workloadNames
	if c.workload != "all" {
		names = []string{c.workload}
	}
	sub := c
	sub.check, sub.out, sub.trace = false, "", false
	breaches := 0
	fmt.Printf("%-13s %-16s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "change", "bound")
	for _, name := range names {
		var runs [2]map[string]row
		for i := range runs {
			rep, err := sub.reexec(name, io.Discard)
			if err != nil {
				return err
			}
			runs[i] = map[string]row{}
			for _, r := range rep.Rows {
				runs[i][r.Name] = r
			}
		}
		var metrics []string
		for m := range runs[0] {
			if _, ok := checkBounds[m]; ok {
				metrics = append(metrics, m)
			}
		}
		sort.Strings(metrics)
		for _, m := range metrics {
			first, second := runs[0][m].Value, runs[1][m].Value
			worse := worsening(m, first, second)
			verdict := ""
			if worse > checkBounds[m] {
				verdict = "  BREACH"
				breaches++
			}
			fmt.Printf("%-13s %-16s %14.6g %14.6g %+8.2f%% %6.0f%%%s\n",
				name, m, first, second, 100*worse, 100*checkBounds[m], verdict)
		}
	}
	if breaches > 0 {
		return fmt.Errorf("%d metrics differ between two runs of the same code by more than their bound", breaches)
	}
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
