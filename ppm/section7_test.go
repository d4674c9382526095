package ppm_test

import (
	"fmt"
	"testing"

	"repro/internal/rng"
	"repro/ppm"
)

// keys returns n pseudo-random words below mod.
func keys(n int, seed, mod uint64) []uint64 {
	x := rng.NewXoshiro256(seed)
	out := make([]uint64, n)
	for i := range out {
		out[i] = x.Next() % mod
	}
	return out
}

// section7Row is one row of TestSection7. Every run builds on a fresh model
// runtime with the WAR checker on, and must verify with no violation. A
// bound row also reduces each run to stat and requires holds of the values,
// in run order. A native row runs again on the native engine, with its WAR
// tracker on.
type section7Row struct {
	name   string
	opts   []ppm.Option
	runs   []ppm.Algorithm
	native bool
	faults bool // the run must see at least one soft fault
	// stat receives the run's stats and its output length in blocks.
	stat  func(s ppm.Stats, outBlocks float64) float64
	holds func(v []float64) bool
	bound string
}

func workPerBlock(s ppm.Stats, blocks float64) float64     { return float64(s.Work) / blocks }
func userWorkPerBlock(s ppm.Stats, blocks float64) float64 { return float64(s.UserWork) / blocks }
func maxCapsWork(s ppm.Stats, _ float64) float64           { return float64(s.MaxCapsWork) }
func userWork(s ppm.Stats, _ float64) float64              { return float64(s.UserWork) }

func section7Rows() []section7Row {
	prefix := func(n, leaf int) ppm.Algorithm { return ppm.PrefixSum("s7", keys(n, uint64(n), 1000), leaf) }
	merge := func(la, lb int) ppm.Algorithm {
		return ppm.Merge("s7", ppm.SortedInput(la, uint64(la)), ppm.SortedInput(lb, uint64(lb)+99))
	}
	matMul := func(dim, base int, seed uint64) ppm.Algorithm {
		return ppm.MatMul("s7", dim, base, keys(dim*dim, seed, 100), keys(dim*dim, seed+1, 100))
	}
	in16 := keys(1<<16, 5, 1_000_000)
	// A dim-64 multiply at base 4 has 8^4 leaves; their closures outgrow
	// the default pool.
	bigPool := []ppm.Option{ppm.WithPoolWords(1 << 22)}
	rows := []section7Row{
		// Theorem 7.1: W = O(n/B) and C = O(1) at leaf B.
		{name: "7.1/work", runs: []ppm.Algorithm{prefix(1<<10, 0), prefix(1<<13, 0)},
			stat: workPerBlock, bound: "Work/(n/B) at 2^13 ≤ 1.5× at 2^10",
			holds: func(v []float64) bool { return v[1] <= 1.5*v[0] }},
		{name: "7.1/capsule", runs: []ppm.Algorithm{prefix(256, 0), prefix(4096, 0)},
			stat: maxCapsWork, bound: "MaxCapsWork at 4096 ≤ at 256, plus 4",
			holds: func(v []float64) bool { return v[1] <= v[0]+4 }},
		// Theorem 7.2: W = O(n/B) and C = O(log n).
		{name: "7.2/work", runs: []ppm.Algorithm{merge(1<<9, 1<<9), merge(1<<12, 1<<12)},
			stat: workPerBlock, bound: "Work/(2n/B) at 2^12 ≤ 2× at 2^9",
			holds: func(v []float64) bool { return v[1] <= 2*v[0] }},
		{name: "7.2/capsule", runs: []ppm.Algorithm{merge(256, 256), merge(4096, 4096)},
			stat: maxCapsWork, bound: "MaxCapsWork at 4096 ≤ 3× at 256",
			holds: func(v []float64) bool { return v[1] <= 3*v[0] }},
		// Theorem 7.3, in the regime M > B² and n ≤ M²/B: sample sort's work
		// beats merge sort's log(n/M) factor, and its C = O(M/B) is flat in n.
		{name: "7.3/work", runs: []ppm.Algorithm{ppm.MergeSort("s7", in16, 1024), ppm.SampleSort("s7", in16, 1024)},
			stat: userWorkPerBlock, bound: "sample sort's UserWork/(n/B) < merge sort's at n = 2^16, M = 1024",
			holds: func(v []float64) bool { return v[1] < v[0] }},
		{name: "7.3/capsule", runs: []ppm.Algorithm{
			ppm.SampleSort("s7", keys(1<<10, 9, 1_000_000), 1024),
			ppm.SampleSort("s7", keys(1<<12, 9, 1_000_000), 1024)},
			stat: maxCapsWork, bound: "MaxCapsWork at 4096 ≤ 3× at 1024",
			holds: func(v []float64) bool { return v[1] <= 3*v[0] }},
		// Theorem 7.4: W = O(n³/(B√M)) with base playing √M.
		{name: "7.4/cubic", opts: bigPool, runs: []ppm.Algorithm{matMul(32, 8, 1), matMul(64, 8, 1)},
			stat: userWork, bound: "UserWork(64)/UserWork(32) in [5, 11] at base 8",
			holds: func(v []float64) bool { return v[1] >= 5*v[0] && v[1] <= 11*v[0] }},
		{name: "7.4/base", opts: bigPool, runs: []ppm.Algorithm{matMul(64, 4, 3), matMul(64, 16, 3)},
			stat: userWork, bound: "at dim 64, base 16 does less work than base 4",
			holds: func(v []float64) bool { return v[1] < v[0] }},
	}

	// Inputs the catalog sweep never reaches, on both engines: sizes from
	// n = 1 up, degenerate and lopsided merges, duplicate keys, odd
	// prefix-sum leaves, and a one-capsule matmul.
	p2 := []ppm.Option{ppm.WithProcs(2)}
	input := func(name string, algo ppm.Algorithm) {
		rows = append(rows, section7Row{name: name, opts: p2, runs: []ppm.Algorithm{algo}, native: true})
	}
	for _, n := range []int{1, 7, 64, 100, 257, 1024} {
		input(fmt.Sprintf("prefixsum/n=%d", n), prefix(n, 0))
	}
	for _, leaf := range []int{1, 3, 5, 13} {
		input(fmt.Sprintf("prefixsum/leaf%d", leaf), prefix(97, leaf))
	}
	for _, s := range [][2]int{{1, 1}, {10, 1}, {1, 10}, {64, 64}, {100, 37}, {513, 511}} {
		input(fmt.Sprintf("merge/%dx%d", s[0], s[1]), merge(s[0], s[1]))
	}
	a, b := make([]uint64, 40), make([]uint64, 40)
	for i := range a {
		a[i], b[i] = uint64(i/4), uint64(i/3)
	}
	input("merge/duplicates", ppm.Merge("s7", a, b))
	for _, n := range []int{1, 16, 100, 500, 1024} {
		input(fmt.Sprintf("mergesort/n=%d", n), ppm.MergeSort("s7", keys(n, uint64(n), 1_000_000), 64))
	}
	for _, n := range []int{1, 10, 64, 250, 1000, 4096} {
		input(fmt.Sprintf("samplesort/n=%d", n), ppm.SampleSort("s7", keys(n, uint64(n)+1, 1_000_000), 128))
	}
	sevens := make([]uint64, 600)
	for i := range sevens {
		sevens[i] = uint64(i % 7)
	}
	input("samplesort/7values", ppm.SampleSort("s7", sevens, 128))
	for _, dim := range []int{2, 4, 8, 16, 32} {
		input(fmt.Sprintf("matmul/n=%d", dim), matMul(dim, 4, 1))
	}
	input("matmul/base=dim", matMul(8, 8, 3))

	// Every workload on P = 4, under three seeds of independent random soft
	// faults, and under soft faults plus one or two hard faults.
	soft := func(rate float64, seed uint64) []ppm.Option {
		return []ppm.Option{ppm.WithProcs(4), ppm.WithFaultRate(rate), ppm.WithSeed(seed)}
	}
	for seed := uint64(1); seed <= 3; seed++ {
		for _, r := range []struct {
			rate float64
			algo ppm.Algorithm
		}{
			{0.01, ppm.PrefixSum("soft", keys(300, seed, 1000), 0)},
			{0.01, ppm.Merge("soft", ppm.SortedInput(200, seed), ppm.SortedInput(150, seed+7))},
			{0.005, ppm.MergeSort("soft", keys(300, seed, 1_000_000), 64)},
			{0.005, ppm.SampleSort("soft", keys(500, seed+50, 1_000_000), 128)},
			{0.005, ppm.MatMul("soft", 16, 4, keys(256, seed, 100), keys(256, seed+9, 100))},
		} {
			rows = append(rows, section7Row{name: fmt.Sprintf("%s/seed=%d", r.algo.Name(), seed),
				opts: soft(r.rate, seed), runs: []ppm.Algorithm{r.algo}, faults: true})
		}
	}
	hard := func(rate float64, seed uint64, deaths ...[2]int) []ppm.Option {
		opts := soft(rate, seed)
		for _, d := range deaths {
			opts = append(opts, ppm.WithHardFault(d[0], int64(d[1])))
		}
		return opts
	}
	for _, r := range []struct {
		opts []ppm.Option
		algo ppm.Algorithm
	}{
		{hard(0.005, 5, [2]int{1, 60}, [2]int{3, 120}), ppm.PrefixSum("hard", keys(400, 5, 1000), 0)},
		{hard(0.005, 3, [2]int{2, 70}), ppm.Merge("hard", ppm.SortedInput(256, 31), ppm.SortedInput(256, 41))},
		{hard(0.003, 7, [2]int{1, 80}, [2]int{2, 200}), ppm.MergeSort("hard", keys(400, 7, 1_000_000), 64)},
		{hard(0.002, 11, [2]int{3, 100}), ppm.SampleSort("hard", keys(800, 99, 1_000_000), 128)},
		{hard(0.002, 5, [2]int{1, 90}, [2]int{2, 150}), ppm.MatMul("hard", 16, 4, keys(256, 7, 100), keys(256, 8, 100))},
	} {
		rows = append(rows, section7Row{name: r.algo.Name(), opts: r.opts,
			runs: []ppm.Algorithm{r.algo}, faults: true})
	}
	return rows
}

// TestSection7 checks Theorems 7.1–7.4 on the ppm workloads, with the
// statistic, sizes and thresholds of each bound, on the model engine, where
// work is counted in block transfers. Its remaining rows run inputs and
// fault schedules the catalog sweep does not; the fault-free inputs run on
// both engines, named model/... and native/....
func TestSection7(t *testing.T) {
	for _, row := range section7Rows() {
		if !row.native {
			section7Run(t, row.name, row)
			continue
		}
		section7Run(t, "model/"+row.name, row)
		section7Run(t, "native/"+row.name, row, ppm.WithEngine(ppm.EngineNative))
	}
}

// section7Run runs row as the subtest name, with the WAR checker on, on the
// runtime that engine selects.
func section7Run(t *testing.T, name string, row section7Row, engine ...ppm.Option) {
	t.Helper()
	t.Run(name, func(t *testing.T) {
		v := make([]float64, len(row.runs))
		for i, algo := range row.runs {
			rt := ppm.New(append(append([]ppm.Option{ppm.WithSeed(7), ppm.WithWARCheck()}, engine...), row.opts...)...)
			defer rt.Close()
			algo.Build(rt)
			if !algo.Run() {
				t.Fatalf("%s did not complete", algo.Name())
			}
			if err := algo.Verify(); err != nil {
				t.Fatal(err)
			}
			if w := rt.WARViolations(); len(w) != 0 {
				t.Fatalf("%s: WAR violations: %v", algo.Name(), w)
			}
			if st := rt.Stats(); row.faults && st.SoftFaults == 0 {
				t.Fatalf("%s saw no soft fault", algo.Name())
			}
			if row.stat != nil {
				v[i] = row.stat(rt.Stats(), float64(len(algo.Output()))/float64(rt.BlockWords()))
			}
		}
		if row.stat == nil {
			return
		}
		t.Logf("%.1f", v)
		if !row.holds(v) {
			t.Errorf("%.1f breaks %s", v, row.bound)
		}
	})
}

// TestPrefixSumGrain pins the leaf PrefixSum(…, 0) selects on each engine by
// exact counts at n = 2^16, so a grain change fails here and not only in a
// benchmark row. The native engine's leaf of 512 gives L = 128 leaves and
// 6L − 3 = 765 capsules (up: L leaves, L − 1 splits, L − 1 combines; down:
// L leaves, L − 1 splits; the root) over 3n + 5L − 4 = 197 244 words. The
// model's leaf of B = 8 words gives L = 8 192 user leaves; its counts include
// the fork-join protocol's own capsules and transfers, and P = 1 makes them
// exact.
func TestPrefixSumGrain(t *testing.T) {
	const n = 1 << 16
	for _, c := range []struct {
		eng            ppm.Engine
		capsules, work int64
	}{
		{ppm.EngineNative, 765, 197_244},
		{ppm.EngineModel, 212_971, 1_767_309},
	} {
		t.Run(string(c.eng), func(t *testing.T) {
			rt := ppm.New(ppm.WithEngine(c.eng), ppm.WithProcs(1), ppm.WithSeed(7),
				ppm.WithMemWords(1<<23), ppm.WithPoolWords(1<<21))
			defer rt.Close()
			algo := ppm.PrefixSum("grain", keys(n, 3, 1000), 0)
			algo.Build(rt)
			if !algo.Run() {
				t.Fatal("did not complete")
			}
			if err := algo.Verify(); err != nil {
				t.Fatal(err)
			}
			if s := rt.Stats(); s.Capsules != c.capsules || s.Work != c.work {
				t.Errorf("%d capsules and %d work, want %d and %d", s.Capsules, s.Work, c.capsules, c.work)
			}
		})
	}
}
