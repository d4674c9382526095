package ppm

import (
	"slices"
	"testing"
)

// TestReferences checks the sequential references that the Section 7
// Verify methods compare against, on hand-computed answers.
func TestReferences(t *testing.T) {
	in := []uint64{5, 1, 4, 1}
	for _, c := range []struct {
		name      string
		got, want []uint64
	}{
		{"prefixsum", prefixSumRef([]uint64{1, 2, 3, 4}), []uint64{1, 3, 6, 10}},
		{"merge", mergeRef([]uint64{1, 3, 5}, []uint64{2, 4, 6}), []uint64{1, 2, 3, 4, 5, 6}},
		{"sort", sortRef(in), []uint64{1, 1, 4, 5}},
		{"sort/input-untouched", in, []uint64{5, 1, 4, 1}},
		{"matmul/identity", matMulRef([]uint64{5, 6, 7, 8}, []uint64{1, 0, 0, 1}, 2), []uint64{5, 6, 7, 8}},
		{"matmul", matMulRef([]uint64{1, 2, 3, 4}, []uint64{5, 6, 7, 8}, 2), []uint64{19, 22, 43, 50}},
	} {
		t.Run(c.name, func(t *testing.T) {
			if !slices.Equal(c.got, c.want) {
				t.Errorf("got %v, want %v", c.got, c.want)
			}
		})
	}
}
