package main

import (
	"sync"
	"time"
)

// The reference box does not run at one speed: a pure-ALU loop takes 295 ms
// or 385 ms for seconds at a time, and kernel medians drift by ±15% over a
// minute with no steal time accounted. A ten-second run sits inside one such
// state, so no statistic over its samples can remove it. What does is a
// yardstick measured beside the work: every slice of measured work (a pass, a
// second of requests, an epoch) is preceded by a fixed calibration loop on P
// goroutines, and the slice's timings are scaled by nominal ÷ measured. Over
// 90 passes of graph-rand this cut the spread of ten-pass medians from 13% to
// 5–6%; over eight alternating runs per workload it cut the spread of p50_ms
// to between a third and a half on five workloads and left forkjoin where it
// was (README.md, "Observed spreads").
//
// The loop mixes dependent random loads over 32 MB with integer arithmetic,
// which is roughly what the kernels do; it shares no code with anything under
// test. Timings of the workloads' operations, of the control passes and of
// the baselines are scaled; set-up (three samples, mostly page faults: scaling
// made it noisier), the micro-probes and the spans of traced runs are not.
// calibration_ms is reported, so a reader can convert.

// calibNominal is what the loop takes on the reference box at its usual
// speed. A run on a machine where it takes this long reports wall time.
const calibNominal = 45 * time.Millisecond

var (
	calibOnce sync.Once
	calibMem  []uint64
)

// calibrate runs the loop once on procs goroutines and returns its wall time.
func calibrate(procs, iters int) time.Duration {
	calibOnce.Do(func() {
		calibMem = make([]uint64, 1<<22)
		for i := range calibMem {
			calibMem[i] = uint64(i)
		}
	})
	var wg sync.WaitGroup
	t0 := time.Now()
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(x uint64) {
			defer wg.Done()
			var acc uint64
			for i := 0; i < iters; i++ {
				x = x*6364136223846793005 + 1442695040888963407
				acc += calibMem[(x>>20)&uint64(len(calibMem)-1)]
				for k := 0; k < 8; k++ {
					acc = acc*31 + x>>uint(k)
				}
			}
			sink += acc
		}(uint64(p + 1))
	}
	wg.Wait()
	return time.Since(t0)
}

// speed calibrates and returns the factor the timings that follow are scaled
// by: above 1 when the machine is running faster than nominal.
func (b *bench) speed() float64 {
	d := calibrate(b.cfg.procs, b.sz.calibIters)
	b.calibrations.add(d)
	nominal := float64(calibNominal) * float64(b.sz.calibIters) / float64(fullSizes.calibIters)
	return nominal / float64(d)
}

// scaled multiplies every sample by f.
func (s series) scaled(f float64) series {
	out := make(series, len(s))
	for i, v := range s {
		out[i] = v * f
	}
	return out
}
