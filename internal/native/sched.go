package native

// SchedStats summarizes scheduler behaviour for one runtime. The shape
// mirrors AllocStats — per-worker plain counters aggregated after the run.
// The interesting ratios: StealTries per unit work is the bus traffic idle
// thieves generate; BatchTasks/Steals is the realized batch size (at most
// stealBatch).
type SchedStats struct {
	Steals     int64 // successful grabs (any size)
	StealTries int64 // deque probes, including misses
	BatchTasks int64 // tasks obtained by stealing (sum of batch sizes)
	Parks      int64 // idle backoff sleeps taken by workers
}

// SchedStats reports the scheduler counters accumulated so far.
func (rt *Runtime) SchedStats() SchedStats {
	var out SchedStats
	for _, w := range rt.workers {
		out.Steals += w.steals
		out.StealTries += w.stealTries
		out.BatchTasks += w.batchTasks
		out.Parks += w.parks
	}
	return out
}
