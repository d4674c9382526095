package graph

import "repro/ppm"

// FrontierGrain is the frontier leaf size of the engine rt runs on, for the
// work bounds of the external tests.
func FrontierGrain(rt *ppm.Runtime) int { return grainsFor(rt).frontier }
