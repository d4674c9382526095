// telemetry sorts a batch of out-of-order sensor readings on a crash-prone
// cluster — the kind of workload the paper's introduction motivates: large
// persistent memory, small volatile state, processors that can drop out at
// any time.
//
// The example drives the Theorem 7.3 samplesort and the baseline mergesort
// through the uniform ppm.Algorithm interface, twice each: once on the
// faulty model machine (reporting the model's work counters), and once on
// the native goroutine engine (reporting wall time) — the engine split in
// one program, with zero changes to the sorts between backends.
//
//	go run ./examples/telemetry
package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/rng"
	"repro/ppm"
)

func main() {
	const n = 1 << 13

	// Simulated sensor telemetry: timestamp-like keys arriving shuffled.
	x := rng.NewXoshiro256(2024)
	readings := make([]uint64, n)
	for i := range readings {
		readings[i] = uint64(i)*1000 + x.Next()%997
	}
	x.Shuffle(readings)

	failed := false
	run := func(eng ppm.Engine, algo ppm.Algorithm) []uint64 {
		// Soft faults strike both engines, but f must respect the model's
		// f < 1/(2C) replay bound against each engine's own capsule grain:
		// the model charges block transfers while the native engine counts
		// every tracked word access, so the same program has a far larger
		// native C and needs a proportionally smaller rate.
		faultRate := 0.002
		if eng == ppm.EngineNative {
			faultRate = 2e-5
		}
		opts := []ppm.Option{
			ppm.WithEngine(eng),
			ppm.WithProcs(4),
			ppm.WithFaultRate(faultRate),
			ppm.WithSeed(99),
			ppm.WithEphWords(1 << 13),
			ppm.WithMemWords(1 << 24),
		}
		if eng == ppm.EngineModel {
			// One node dies mid-batch. Only the model simulates hard faults;
			// New refuses WithHardFault on the native engine.
			opts = append(opts, ppm.WithHardFault(0, 5000))
		}
		rt := ppm.New(opts...)
		algo.Build(rt)
		start := time.Now()
		if !algo.Run() {
			fmt.Printf("%s: cluster lost\n", algo.Name())
			failed = true
			return nil
		}
		wall := time.Since(start)
		status := "exact"
		if err := algo.Verify(); err != nil {
			status = err.Error()
			failed = true
		}
		s := rt.Stats()
		if eng == ppm.EngineModel {
			fmt.Printf("[model]  %-22s sorted %d readings (%s) | work W=%d, total Wf=%d, faults=%d, steals=%d, dead=%d\n",
				algo.Name()+":", n, status, s.UserWork, s.Work, s.SoftFaults, s.Steals, s.Dead)
		} else {
			fmt.Printf("[native] %-22s sorted %d readings (%s) | %s wall, %d capsules, %d steals, %d faults replayed\n",
				algo.Name()+":", n, status, wall.Round(time.Microsecond), s.Capsules, s.Steals, s.Restarts)
		}
		return algo.Output()
	}

	bySample := run(ppm.EngineModel, ppm.SampleSort("telemetry", readings, 1024))
	byMerge := run(ppm.EngineModel, ppm.MergeSort("telemetry", readings, 1024))
	run(ppm.EngineNative, ppm.SampleSort("telemetry-native", readings, 1024))
	run(ppm.EngineNative, ppm.MergeSort("telemetry-native", readings, 1024))

	same := bySample != nil && byMerge != nil && len(bySample) == len(byMerge)
	for i := range bySample {
		if !same || bySample[i] != byMerge[i] {
			same = false
			break
		}
	}
	fmt.Printf("samplesort and mergesort outputs identical: %v\n", same)
	fmt.Println("(faults on both engines — simulated with cost accounting on the model, replay-emulated at hardware speed natively; dead node on the model only)")
	if failed || !same {
		os.Exit(1)
	}
}
