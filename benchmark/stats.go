package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// ledger is the one place operations are counted. An operation is counted
// with attempt before it is issued; anything that makes it not count as done
// and right — a run that did not complete, a refusal or deadline, a Verify
// error, a mismatch against the benchmark's own baseline — is one fail.
type ledger struct {
	attempted atomic.Int64
	failed    atomic.Int64

	mu      sync.Mutex
	reasons []string // the first few failures, for the report
}

const maxReasons = 8

func (l *ledger) attempt() { l.attempted.Add(1) }

func (l *ledger) fail(format string, args ...any) {
	l.failed.Add(1)
	l.mu.Lock()
	if len(l.reasons) < maxReasons {
		l.reasons = append(l.reasons, fmt.Sprintf(format, args...))
	}
	l.mu.Unlock()
}

// check counts err as a failure of an operation already attempted and
// reports whether there was none.
func (l *ledger) check(what string, err error) bool {
	if err != nil {
		l.fail("%s: %v", what, err)
	}
	return err == nil
}

// series is the samples of one timed metric, in nanoseconds.
type series []float64

func (s *series) add(d time.Duration) { *s = append(*s, float64(d)) }

// row is one reported metric. Timings carry their sample count, quartiles
// and tail; counts and ratios carry n=1 and, for a ratio, the value it was
// divided by, so that no ratio is printed without its base.
type row struct {
	Workload string  `json:"workload"`
	Name     string  `json:"metric"`
	Value    float64 `json:"value"`
	Unit     string  `json:"unit"`
	N        int     `json:"n"`
	Q1       float64 `json:"q1"`
	Q3       float64 `json:"q3"`
	TailPct  float64 `json:"tail_pct,omitempty"` // 0: too few samples for a tail
	Tail     float64 `json:"tail,omitempty"`
	Base     string  `json:"base,omitempty"`
}

func (r row) String() string {
	tail := "-"
	if r.TailPct > 0 {
		tail = fmt.Sprintf("p%g:%.6g", r.TailPct, r.Tail)
	}
	s := fmt.Sprintf("%-13s %-28s %14.6g %-6s n=%d q1=%.6g q3=%.6g tail=%s",
		r.Workload, r.Name, r.Value, r.Unit, r.N, r.Q1, r.Q3, tail)
	if r.Base != "" {
		s += " base=" + r.Base
	}
	return s
}

// Units a series can be reported in, as nanoseconds per unit.
const (
	inNS = 1
	inUS = 1e3
	inMS = 1e6
	inS  = 1e9
)

var unitNames = map[float64]string{inNS: "ns", inUS: "us", inMS: "ms", inS: "s"}

// inCount prints a ratio's base as a bare number.
const inCount = 0

// timing summarises a series as its median, with quartiles and the tail.
func (s series) timing(name string, per float64) row {
	sorted := s.sorted()
	r := row{Name: name, Unit: unitNames[per], N: len(sorted),
		Value: quantile(sorted, 0.5) / per,
		Q1:    quantile(sorted, 0.25) / per,
		Q3:    quantile(sorted, 0.75) / per}
	if p := tailPercentile(len(sorted)); p > 0 {
		r.TailPct, r.Tail = p, quantile(sorted, p/100)/per
	}
	return r
}

func (s series) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

func (s series) median() float64 { return quantile(s.sorted(), 0.5) }

// tailPercentile is the highest percentile with at least ten samples beyond
// it, or 0 when even the median has fewer.
func tailPercentile(n int) float64 {
	best := 0
	for _, p := range []int{5000, 7500, 9000, 9500, 9900, 9990, 9999} { // in 1/100 of a percent
		if n*(10000-p) >= 10*10000 {
			best = p
		}
	}
	return float64(best) / 100
}

// quantile interpolates linearly between the closest ranks of a sorted
// slice; NaN for an empty one, so a metric that was never sampled cannot be
// mistaken for a fast one.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// scalar is a metric measured once per run: a count, a size, a throughput.
func scalar(name string, v float64, unit string) row {
	return row{Name: name, Value: v, Unit: unit, N: 1, Q1: v, Q3: v}
}

// ratio is num÷den with the denominator kept beside it: base names it, and
// its value is printed in the unit per (inMS for a time in nanoseconds,
// inCount for a bare number).
func ratio(name string, num, den float64, base string, per float64) row {
	r := scalar(name, num/den, "ratio")
	if per == inCount {
		r.Base = fmt.Sprintf("%s=%.6g", base, den)
	} else {
		r.Base = fmt.Sprintf("%s=%.6g%s", base, den/per, unitNames[per])
	}
	return r
}
