package experiments

import (
	"errors"
	"fmt"
	"math/rand"

	"alamr/internal/dataset"
	"alamr/internal/engine"
	"alamr/internal/stats"
)

// batchSpec pairs a policy with an initial-partition size.
type batchSpec struct {
	Policy engine.Policy
	NInit  int
}

// Key identifies the spec in batch results.
func (s batchSpec) Key() string { return fmt.Sprintf("%s/ninit=%d", s.Policy.Name(), s.NInit) }

// runBatch runs every spec on opts.Partitions random partitions of
// opts.Dataset (each with opts.NTest test jobs) on the engine's sweep
// runner, opts.Workers at a time — the Go analogue of the paper's
// multiprocessing batch mode — and groups the trajectories by spec key.
// Every run takes its iteration cap and refit cadence from opts and its
// remaining loop settings (memory limit, kernel, ...) from tpl. Partitions
// are shared across specs with the same NInit so policies are compared on
// identical data splits; all randomness is derived deterministically from
// seed.
//
// Worker failures are isolated by the sweep: a task that errors (or panics)
// does not abort the batch or discard its siblings. All completed
// trajectories are returned grouped as usual, alongside an error joining
// every per-task failure — callers distinguish "all good" (nil error),
// "partial" (non-nil error, non-empty map), and "nothing" (non-nil error,
// empty map).
func runBatch(opts Options, seed int64, specs []batchSpec, tpl engine.LoopConfig) (map[string][]*engine.Trajectory, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("experiments: runBatch needs at least one spec")
	}
	tpl.MaxIterations = opts.MaxIterations
	tpl.HyperoptEvery = opts.HyperoptEvery

	type task struct {
		spec batchSpec
		part dataset.Partition
		seed int64
	}
	var tasks []task
	for pi := 0; pi < opts.Partitions; pi++ {
		// One partition per (partition index, nInit): identical splits for
		// every policy at the same nInit.
		parts := make(map[int]dataset.Partition)
		for _, spec := range specs {
			part, ok := parts[spec.NInit]
			if !ok {
				rng := rand.New(rand.NewSource(stats.SplitSeed(seed, pi*1000+spec.NInit)))
				var err error
				part, err = dataset.Split(opts.Dataset, spec.NInit, opts.NTest, rng)
				if err != nil {
					return nil, err
				}
				parts[spec.NInit] = part
			}
			tasks = append(tasks, task{
				spec: spec,
				part: part,
				seed: stats.SplitSeed(seed, 7919*pi+len(tasks)),
			})
		}
	}

	items := make([]engine.SweepItem, len(tasks))
	for i := range tasks {
		tk := tasks[i]
		items[i] = engine.SweepItem{
			ID: fmt.Sprintf("%d:%s", i, tk.spec.Key()),
			Run: func(scope *engine.CampaignObs) (any, error) {
				loopCfg := tpl
				loopCfg.Policy = tk.spec.Policy
				loopCfg.Seed = tk.seed
				loopCfg.Campaign = scope
				return engine.RunReplay(opts.Dataset, tk.part, loopCfg)
			},
		}
	}
	results, _ := engine.Sweep(engine.SweepConfig{Workers: opts.Workers, Items: items})

	var failures []error
	grouped := make(map[string][]*engine.Trajectory)
	for i, r := range results {
		if r.Err != nil {
			failures = append(failures, fmt.Errorf("experiments: batch task %d (%s): %w", i, tasks[i].spec.Key(), r.Err))
			continue
		}
		grouped[tasks[i].spec.Key()] = append(grouped[tasks[i].spec.Key()], r.Value.(*engine.Trajectory))
	}
	return grouped, errors.Join(failures...)
}

// aggregateCurves computes the pointwise median and IQR band of one named
// per-iteration metric across trajectories.
func aggregateCurves(trs []*engine.Trajectory, metric string) (stats.Band, error) {
	series := make([][]float64, len(trs))
	for i, tr := range trs {
		switch metric {
		case "cost-rmse":
			series[i] = tr.CostRMSE
		case "mem-rmse":
			series[i] = tr.MemRMSE
		case "cum-cost":
			series[i] = tr.CumCost
		case "cum-regret":
			series[i] = tr.CumRegret
		default:
			return stats.Band{}, fmt.Errorf("experiments: unknown metric %q", metric)
		}
	}
	return stats.AggregateBand(series, 0.25, 0.75), nil
}
