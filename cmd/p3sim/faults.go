package main

import (
	"fmt"
	"os"

	"p3/internal/cluster"
	"p3/internal/faults"
	"p3/internal/strategy"
)

// faultPlan loads (-faultplan) or generates (-faultseed) the run's fault
// plan; nil (neither flag set) means a fault-free run. Whether the plan
// fits the cluster is Config.Validate's business.
func faultPlan(path string, seed int64, cfg cluster.Config) (*faults.Plan, error) {
	switch {
	case path != "" && seed != 0:
		return nil, fmt.Errorf("-faultplan and -faultseed are mutually exclusive: a file replays a scripted plan, a seed generates one")
	case path != "":
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("-faultplan: %w", err)
		}
		p, err := faults.Decode(data)
		if err != nil {
			return nil, fmt.Errorf("-faultplan %s: %w", path, err)
		}
		return p, nil
	case seed != 0:
		// The generator draws machine, rack and pod indices from the cell, so
		// the cell has to stand on its own first.
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		// Crashes only make sense when the cluster has aggregators with a
		// recovery path, so the generator is told which tiers are crashable.
		canCrash := cfg.RackAggregation && !cfg.RackLocalPS && cfg.Strategy.Pull == strategy.Immediate
		return faults.Scripted(seed, cfg.Machines, cfg.Topology, canCrash, canCrash && cfg.HierAggregation, 0), nil
	}
	return nil, nil
}
