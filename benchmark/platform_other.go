//go:build !linux

package main

// Peak RSS and the filesystem type are read from Linux interfaces; elsewhere
// the benchmark still runs and reports them as unknown.

func peakRSSMB() float64 { return 0 }

func fsType(string) string { return "unknown" }
