// Package sort is a minimal analysistest stand-in for the standard
// library's sort package.
package sort

func Slice(x any, less func(i, j int) bool)              {}
func SliceIsSorted(x any, less func(i, j int) bool) bool { return true }
func Search(n int, f func(int) bool) int                 { return 0 }
