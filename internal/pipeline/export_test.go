package pipeline

// Test-only access for the external pipeline_test package.

// WithPolling returns cfg with event-driven idle skipping off: the run
// polls every structure every cycle, the reference loop only tests select.
func WithPolling(cfg Config) Config {
	cfg.noIdleSkip = true
	return cfg
}

// GoldenVariant is one golden machine variant and the workload it runs.
type GoldenVariant struct {
	Name, Workload string
	Cfg            Config
}

// GoldenVariants returns the golden table's machine variants.
func GoldenVariants() []GoldenVariant {
	var out []GoldenVariant
	for _, gc := range goldenCases() {
		out = append(out, GoldenVariant{gc.name, gc.workload, gc.cfg})
	}
	return out
}
