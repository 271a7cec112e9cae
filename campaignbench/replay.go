package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"time"

	"alamr/internal/dataset"
	"alamr/internal/engine"
	"alamr/internal/gp"
	"alamr/internal/kernel"
	"alamr/internal/obs"
	"alamr/internal/serve"
)

// runReplayWorkload runs replay-rgma.json campaigns one after another in
// this process through engine.RunCampaignSpec: the paper's replay
// evaluation, as al-run and al-eval serve it.
func runReplayWorkload(b *bench) (*outcome, error) {
	const name = "replay-rgma"
	var ds *dataset.Dataset
	var spec engine.CampaignSpec
	var loadS, specS []float64
	setup, err := medianSetup(setupReps, func() error {
		t0 := time.Now()
		var err error
		if ds, err = dataset.LoadFile(datasetPath); err != nil {
			return err
		}
		t1 := time.Now()
		spec, err = loadSpec(name, 0)
		loadS = append(loadS, t1.Sub(t0).Seconds())
		specS = append(specS, time.Since(t1).Seconds())
		return err
	})
	if err != nil {
		return nil, err
	}

	out := newOutcome()
	runOne := func(seed int64) (campaign, bool) {
		s := spec
		s.Seed = seed
		c := runInProcess(name, s, ds)
		out.attempted++
		if c.err != nil {
			out.fail(fmt.Sprintf("%s seed %d", name, seed), c.err)
			return c, false
		}
		if err := b.oracle.check(name, s, c.result); err != nil {
			out.fail(fmt.Sprintf("%s seed %d", name, seed), err)
			return c, false
		}
		return c, true
	}

	if !b.trace {
		u0, start := selfUsage(), time.Now()
		var walls []float64
		for i := 0; time.Since(start) < b.seconds; i++ {
			if c, ok := runOne(campaignSeed(b.seed, i)); ok {
				walls = append(walls, c.wall)
			}
		}
		wall, u1 := time.Since(start).Seconds(), selfUsage()
		out.values["setup_s"] = setup
		out.values["campaigns_per_s"] = float64(len(walls)) / wall
		out.values["campaign_p50_s"] = median(walls)
		out.values["cpu_s_per_campaign"] = (u1.cpuS - u0.cpuS) / float64(out.attempted)
		out.values["peak_rss_mb"] = u1.peakRSSMB
		out.notef("%s: %d campaigns in %.1f s, campaign_p50_s over %d samples", name, out.attempted, wall, len(walls))
		return out, nil
	}

	// Traced run: each campaign seed runs untraced and then traced, with
	// the obs registry bound and the gp calls re-issued afterwards.
	var l layerTotals
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < b.seconds; i++ {
		seed := campaignSeed(b.seed, i)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		u0 := selfUsage()
		plain, ok := runOne(seed)
		u1 := selfUsage()
		runtime.ReadMemStats(&m1)
		if !ok {
			continue
		}
		l.addGo(1, plain.wall, u1.cpuS-u0.cpuS, m1.TotalAlloc-m0.TotalAlloc, m1.NumGC-m0.NumGC)

		reg := obs.NewRegistry()
		obs.Enable(reg, nil)
		traced, ok := runOne(seed)
		obs.Disable()
		if !ok {
			continue
		}
		if !bytes.Equal(traced.result, plain.result) {
			out.fail(fmt.Sprintf("%s seed %d traced", name, seed), fmt.Errorf("traced result differs from the untraced one"))
			continue
		}
		l.addCampaign(name, plain.wall, traced.wall-plain.wall)
		l.addSelections(plain.result)
		l.addPhases(phaseSums(reg), traced.wall)
		s := spec
		s.Seed = seed
		l.addReissue(ds, s, traced.result, plain.wall)
	}
	l.report(out)
	out.values["dataset.load_s"] = median(loadS)
	out.values["engine.spec_load_s"] = median(specS)
	return out, nil
}

// campaign is one finished in-process campaign.
type campaign struct {
	wall   float64
	result []byte
	err    error
}

// runInProcess runs one campaign through engine.RunCampaignSpec and
// encodes its result canonically.
func runInProcess(name string, spec engine.CampaignSpec, ds *dataset.Dataset) campaign {
	ctx, cancel := context.WithTimeout(context.Background(), campaignTimeout)
	defer cancel()
	t0 := time.Now()
	v, err := engine.RunCampaignSpec(ctx, spec, ds, nil)
	wall := time.Since(t0).Seconds()
	if err != nil {
		return campaign{wall: wall, err: err}
	}
	data, err := serve.MarshalResult(v)
	return campaign{wall: wall, result: data, err: err}
}

// gpTimes are the wall times of a replay campaign's own gp.Model calls,
// re-issued outside the engine.
type gpTimes struct {
	fit, append, refit, score, eval time.Duration
	refits                          int
}

func (t gpTimes) total() time.Duration { return t.fit + t.append + t.refit + t.score + t.eval }

// reissueReplay replays a finished exact-GP replay campaign's surrogate
// work call for call: the initial Fit of both models, then for every
// recorded selection the pool scoring through the models' incremental pool
// caches, Append (plus Refit at the hyperopt cadence), and the test-set
// Predict the RMSE curves read. It reports whether the re-issued models end
// on the trajectory's final hyperparameters bit for bit; when they do not,
// the times describe some other computation and must not be reported.
func reissueReplay(ds *dataset.Dataset, spec engine.CampaignSpec, tr *engine.Trajectory) (gpTimes, bool, error) {
	var t gpTimes
	if spec.Fidelity != nil || spec.Replay.Pool != nil || spec.Replay.Batch != nil || spec.Replay.Stable != nil {
		return t, false, fmt.Errorf("gp re-issue covers plain sequential replay specs only")
	}
	part, cfg, err := spec.ReplayPlan(ds)
	if err != nil {
		return t, false, err
	}
	// The engine's defaults for a spec without kernel or model sections
	// (engine.LoopConfig): isotropic RBF ℓ=0.5 σ_f=1, noise 0.1, centred
	// targets, hyperopt every 10 selections.
	kern := cfg.Kernel
	if kern == nil {
		kern = kernel.NewRBF(0.5, 1)
	}
	model := engine.ModelSpec{}
	if spec.Model != nil {
		model = *spec.Model
	}
	hyperEvery := cfg.HyperoptEvery
	if hyperEvery <= 0 {
		hyperEvery = 10
	}
	features := ds.Features
	if cfg.Log2P {
		features = ds.FeaturesLog2P
	}
	deps := engine.ModelDeps{Kernel: kern, GP: gp.Config{Noise: 0.1, NormalizeY: true}}
	costM, err := engine.BuildModel(model, deps)
	if err != nil {
		return t, false, err
	}
	memM, err := engine.BuildModel(model, deps)
	if err != nil {
		return t, false, err
	}

	timed := func(d *time.Duration, f func() error) error {
		t0 := time.Now()
		err := f()
		*d += time.Since(t0)
		return err
	}
	xInit, xTest := features(part.Init), features(part.Test)
	if err := timed(&t.fit, func() error {
		if err := costM.Fit(xInit, ds.LogCost(part.Init)); err != nil {
			return err
		}
		return memM.Fit(xInit, ds.LogMem(part.Init))
	}); err != nil {
		return t, false, err
	}
	costM.SetRestarts(0)
	memM.SetRestarts(0)
	evalTest := func() {
		_ = timed(&t.eval, func() error {
			costM.Predict(xTest)
			memM.Predict(xTest)
			return nil
		})
	}
	evalTest()

	remaining := append([]int(nil), part.Active...)
	pool := features(remaining)
	costC, memC := gp.NewPoolCache(costM, pool), gp.NewPoolCache(memM, pool)
	if costC == nil || memC == nil {
		return t, false, fmt.Errorf("model %q has no pool cache", model.Name)
	}
	defer costC.Close()
	defer memC.Close()
	for i, idx := range tr.Selected {
		_ = timed(&t.score, func() error {
			costC.Scores()
			memC.Scores()
			return nil
		})
		pos := -1
		for p, r := range remaining {
			if r == idx {
				pos = p
				break
			}
		}
		if pos < 0 {
			return t, false, fmt.Errorf("selection %d: dataset index %d is not in the pool", i, idx)
		}
		x := append([]float64(nil), pool.Row(pos)...)
		logC, logM := math.Log10(ds.Jobs[idx].CostNH), math.Log10(ds.Jobs[idx].MemMB)
		if err := timed(&t.append, func() error {
			if err := costM.Append(x, logC); err != nil {
				return err
			}
			return memM.Append(x, logM)
		}); err != nil {
			return t, false, err
		}
		if (i+1)%hyperEvery == 0 {
			t.refits++
			if err := timed(&t.refit, func() error {
				if err := costM.Refit(); err != nil {
					return err
				}
				return memM.Refit()
			}); err != nil {
				return t, false, err
			}
		}
		pool = pool.RemoveRow(pos)
		costC.Remove(pos)
		memC.Remove(pos)
		remaining = append(remaining[:pos], remaining[pos+1:]...)
		evalTest()
	}
	faithful := sameBits(costM.Hyperparams(), tr.FinalHyperCost) && sameBits(memM.Hyperparams(), tr.FinalHyperMem)
	return t, faithful, nil
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// decodeTrajectory reads a canonical replay result.
func decodeTrajectory(result []byte) (*engine.Trajectory, error) {
	var tr engine.Trajectory
	if err := json.Unmarshal(result, &tr); err != nil {
		return nil, err
	}
	return &tr, nil
}
