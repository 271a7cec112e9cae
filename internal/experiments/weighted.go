package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"alamr/internal/dataset"
	"alamr/internal/engine"
	"alamr/internal/gp"
	"alamr/internal/kernel"
	"alamr/internal/report"
	"alamr/internal/stats"
)

// WeightedErrorRow reports one policy's final errors under the two metrics
// of §V-D: the paper's uniform-weight RMSE (eq. 10) and the cost-weighted
// variant (eq. 12 with ρ proportional to each test job's actual cost), which
// the paper argues is the right metric for cost-efficient AL — mispredicting
// an expensive job matters more than mispredicting a cheap one.
type WeightedErrorRow struct {
	Policy        string
	UniformRMSE   float64
	CostWeighted  float64
	CheapQuartile float64 // RMSE restricted to the cheapest test quartile
	DearQuartile  float64 // RMSE restricted to the most expensive quartile
}

// weightedCell is one (policy, partition) campaign's metric quadruple.
type weightedCell struct {
	uni, wtd, cheap, dear float64
}

// WeightedErrorStudy trains each policy's final cost model (initial
// partition plus everything the policy selected) and scores it under
// uniform, cost-weighted, and per-quartile RMSE. Medians across partitions.
//
// The (policy, partition) grid runs as one engine sweep. The partition and
// run seeds deliberately do not involve the policy, so every policy is
// scored on identical splits with an identical RNG stream; the splits are
// drawn once up front and shared across the grid.
func WeightedErrorStudy(opts Options) ([]WeightedErrorRow, error) {
	if err := opts.setDefaults(); err != nil {
		return nil, err
	}
	nInit := scaleNInit(opts.Dataset, 50)
	policies := []engine.Policy{engine.RandUniform{}, engine.MinPred{}, engine.RandGoodness{}, engine.MaxSigma{}}

	parts := make([]dataset.Partition, opts.Partitions)
	seeds := make([]int64, opts.Partitions)
	for pi := range parts {
		rng := rand.New(rand.NewSource(stats.SplitSeed(opts.Seed+11, pi*10)))
		part, err := dataset.Split(opts.Dataset, nInit, opts.NTest, rng)
		if err != nil {
			return nil, err
		}
		parts[pi] = part
		seeds[pi] = stats.SplitSeed(opts.Seed+11, 5000+pi)
	}

	var items []engine.SweepItem
	for _, policy := range policies {
		for pi := 0; pi < opts.Partitions; pi++ {
			policy, pi := policy, pi
			items = append(items, engine.SweepItem{
				ID: fmt.Sprintf("weighted/%s/part=%d", policy.Name(), pi),
				Run: func(scope *engine.CampaignObs) (any, error) {
					tr, err := engine.RunReplay(opts.Dataset, parts[pi], engine.LoopConfig{
						Policy:        policy,
						MaxIterations: opts.MaxIterations,
						HyperoptEvery: opts.HyperoptEvery,
						Seed:          seeds[pi],
						Campaign:      scope,
					})
					if err != nil {
						return nil, err
					}
					return scoreFinalModel(opts.Dataset, parts[pi], tr)
				},
			})
		}
	}
	results, err := engine.Sweep(engine.SweepConfig{Workers: opts.Workers, Items: items})
	if err != nil {
		return nil, err
	}

	var rows []WeightedErrorRow
	tb := &report.Table{Header: []string{"policy", "uniform RMSE", "cost-weighted RMSE", "cheap-quartile", "expensive-quartile"}}
	for qi, policy := range policies {
		var uni, wtd, cheap, dear []float64
		for pi := 0; pi < opts.Partitions; pi++ {
			cell := results[qi*opts.Partitions+pi].Value.(weightedCell)
			uni = append(uni, cell.uni)
			wtd = append(wtd, cell.wtd)
			cheap = append(cheap, cell.cheap)
			dear = append(dear, cell.dear)
		}
		row := WeightedErrorRow{
			Policy:        policy.Name(),
			UniformRMSE:   stats.Median(uni),
			CostWeighted:  stats.Median(wtd),
			CheapQuartile: stats.Median(cheap),
			DearQuartile:  stats.Median(dear),
		}
		rows = append(rows, row)
		tb.Add(row.Policy, row.UniformRMSE, row.CostWeighted, row.CheapQuartile, row.DearQuartile)
	}
	fmt.Fprintln(opts.Out, "§V-D: uniform vs cost-weighted error metrics (final cost models)")
	if err := tb.Write(opts.Out); err != nil {
		return nil, err
	}
	fmt.Fprintln(opts.Out, "note: cost-greedy policies look strong under uniform RMSE but weak under")
	fmt.Fprintln(opts.Out, "cost weighting — they rarely sample the expensive regime they mispredict.")
	return rows, nil
}

// scoreFinalModel fits the final cost model (initial partition plus every
// selection) and evaluates the §V-D metric quadruple on the test split.
func scoreFinalModel(ds *dataset.Dataset, part dataset.Partition, tr *engine.Trajectory) (weightedCell, error) {
	trainIdx := append(append([]int(nil), part.Init...), tr.Selected...)
	g := gp.New(kernel.NewRBF(0.5, 1), gp.Config{Noise: 0.1, NormalizeY: true, Seed: 1})
	if err := g.Fit(ds.Features(trainIdx), ds.LogCost(trainIdx)); err != nil {
		return weightedCell{}, err
	}
	mu := g.PredictMean(ds.Features(part.Test))
	pred := make([]float64, len(mu))
	for i, m := range mu {
		pred[i] = math.Pow(10, m)
	}
	actual := ds.Cost(part.Test)

	cell := weightedCell{
		uni: stats.RMSE(pred, actual),
		wtd: stats.WeightedRMSE(pred, actual, actual),
	}
	q1 := stats.Quantile(actual, 0.25)
	q3 := stats.Quantile(actual, 0.75)
	var cp, ca, dp, da []float64
	for i, a := range actual {
		if a <= q1 {
			cp = append(cp, pred[i])
			ca = append(ca, a)
		}
		if a >= q3 {
			dp = append(dp, pred[i])
			da = append(da, a)
		}
	}
	cell.cheap = stats.RMSE(cp, ca)
	cell.dear = stats.RMSE(dp, da)
	return cell, nil
}
