// Package slices is a minimal analysistest stand-in for the standard
// library's slices package.
package slices

func Sort[S ~[]E, E any](x S)                           {}
func SortFunc[S ~[]E, E any](x S, cmp func(a, b E) int) {}
func Reverse[S ~[]E, E any](s S)                        {}
func Index[S ~[]E, E comparable](s S, v E) int          { return -1 }
