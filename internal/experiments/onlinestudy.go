package experiments

import (
	"fmt"
	"math"

	"alamr/internal/dataset"
	"alamr/internal/engine"
	"alamr/internal/online"
	"alamr/internal/report"
	"alamr/internal/stats"
)

// OnlineStudyRow summarizes repeated online campaigns for one policy.
type OnlineStudyRow struct {
	Policy        string
	MedianCost    float64 // node-hours spent per campaign
	MedianRegret  float64
	MedianMAPE    float64 // one-step-ahead cost MAPE
	MedianRefRuns float64 // physics references the lab had to simulate
}

// onlineCell is one repetition's summary.
type onlineCell struct {
	cost, regret  float64
	hasFinal      bool
	mape          float64
	hasMAPE       bool
	refsSimulated float64
}

// OnlineStudy runs repeated online campaigns (the §IV "online" mode) against
// a shared simulation-backed lab and compares policies on spend, regret,
// one-step prediction error, and how much fresh physics each policy forces
// the lab to simulate. It complements the offline figures: here there is no
// precomputed pool, the learner roams the full 1920-point grid.
//
// The campaigns run as one engine sweep with Workers=1: the lab is shared
// and mutable (reference cache plus the run counter seeding per-run
// measurement noise), so strictly sequential dispatch in item order keeps
// the noise stream — and thus every result — identical to a nested loop.
func OnlineStudy(opts Options, experimentsPerRun, repetitions int) ([]OnlineStudyRow, error) {
	if err := opts.setDefaults(); err != nil {
		return nil, err
	}
	if experimentsPerRun <= 0 {
		experimentsPerRun = 20
	}
	if repetitions <= 0 {
		repetitions = 3
	}
	policies := []engine.Policy{engine.RandUniform{}, engine.RandGoodness{}, engine.RGMA{}}

	// One lab per study: reference solutions are shared across repetitions
	// and policies, exactly as a real campaign would reuse prior physics.
	lab := online.NewSimLab(online.SimLabConfig{RefNx: 48, RefTEnd: 0.1, RefSnaps: 4, Seed: opts.Seed})
	memLimit := engine.PaperMemLimitMB(opts.Dataset)

	var items []engine.SweepItem
	for pi, p := range policies {
		for r := 0; r < repetitions; r++ {
			p, seed := p, stats.SplitSeed(opts.Seed+12, r*10+pi)
			items = append(items, engine.SweepItem{
				ID: fmt.Sprintf("online/%s/rep=%d", p.Name(), r),
				Run: func(scope *engine.CampaignObs) (any, error) {
					before := lab.NumReferenceRuns()
					res, err := online.Run(lab, online.Config{
						Policy:         p,
						MaxExperiments: experimentsPerRun,
						MemLimitMB:     memLimit,
						Seed:           seed,
						InitDesign: []dataset.Combo{
							{P: 8, Mx: 16, MaxLevel: 4, R0: 0.3, RhoIn: 0.1},
						},
						Campaign: scope,
					})
					if err != nil {
						return nil, err
					}
					cell := onlineCell{refsSimulated: float64(lab.NumReferenceRuns() - before)}
					if n := len(res.CumCost); n > 0 {
						cell.cost, cell.regret, cell.hasFinal = res.CumCost[n-1], res.CumRegret[n-1], true
					}
					if m := res.OneStepMAPE(); !math.IsNaN(m) {
						cell.mape, cell.hasMAPE = m, true
					}
					return cell, nil
				},
			})
		}
	}
	results, err := engine.Sweep(engine.SweepConfig{Workers: 1, Items: items})
	if err != nil {
		return nil, err
	}

	var rows []OnlineStudyRow
	tb := &report.Table{Header: []string{"policy", "median cost (nh)", "median regret", "median 1-step MAPE", "refs simulated"}}
	for pi, p := range policies {
		var cost, regret, mape, refs []float64
		for r := 0; r < repetitions; r++ {
			cell := results[pi*repetitions+r].Value.(onlineCell)
			if cell.hasFinal {
				cost = append(cost, cell.cost)
				regret = append(regret, cell.regret)
			}
			if cell.hasMAPE {
				mape = append(mape, cell.mape)
			}
			refs = append(refs, cell.refsSimulated)
		}
		row := OnlineStudyRow{
			Policy:        p.Name(),
			MedianCost:    stats.Median(cost),
			MedianRegret:  stats.Median(regret),
			MedianMAPE:    stats.Median(mape),
			MedianRefRuns: stats.Median(refs),
		}
		rows = append(rows, row)
		tb.Add(row.Policy, row.MedianCost, row.MedianRegret,
			fmt.Sprintf("%.0f%%", 100*row.MedianMAPE), row.MedianRefRuns)
	}
	fmt.Fprintf(opts.Out, "online mode: %d campaigns of %d experiments per policy (shared lab)\n",
		repetitions, experimentsPerRun)
	return rows, tb.Write(opts.Out)
}
