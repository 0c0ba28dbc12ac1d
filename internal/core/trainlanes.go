package core

// TrainLane is one measured configuration of the coupled trainer. The lane
// tables of BenchmarkTrainCoupled (internal/core) and lrfbench -benchtrain
// (BENCH_train.json) share these definitions, so the two benchmarks always
// measure the same configurations under the same names.
type TrainLane struct {
	Name string
	// Apply mutates a copy of the base CoupledConfig into this lane's
	// configuration.
	Apply func(*CoupledConfig)
}

// TrainLanes returns the benchmark lanes of the feedback-training path:
// the bit-exact default (sequential, cold start), each optimization in
// isolation, and the full fast lane. The fast lane (Workers + warm start)
// is the documented opt-in whose drift is characterized in EXPERIMENTS.md;
// the first and last entries are the before/after acceptance pair of
// BENCH_train.json.
func TrainLanes() []TrainLane {
	return []TrainLane{
		{"baseline", func(c *CoupledConfig) {}},
		{"workers4", func(c *CoupledConfig) { c.Workers = 4 }},
		{"warmstart", func(c *CoupledConfig) { c.WarmStart = true }},
		{"fastlane-w4", func(c *CoupledConfig) {
			c.Workers = 4
			c.WarmStart = true
		}},
	}
}
