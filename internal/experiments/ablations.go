package experiments

import (
	"fmt"
	"sort"

	"alamr/internal/engine"
	"alamr/internal/kernel"
	"alamr/internal/report"
	"alamr/internal/stats"
)

// AblationResult maps a variant name to its final median cost RMSE and
// cumulative cost.
type AblationResult struct {
	FinalCostRMSE map[string]float64
	FinalCumCost  map[string]float64
}

// KernelAblation compares the paper's isotropic RBF against the kernels its
// future-work section proposes: anisotropic (ARD) RBF and Matérn 3/2 & 5/2,
// all under the RandGoodness policy.
func KernelAblation(opts Options) (*AblationResult, error) {
	if err := opts.setDefaults(); err != nil {
		return nil, err
	}
	variants := map[string]kernel.Kernel{
		"RBF":       kernel.NewRBF(0.5, 1),
		"ARD-RBF":   kernel.NewARDRBF([]float64{0.5, 0.5, 0.5, 0.5, 0.5}, 1),
		"Matern3/2": kernel.NewMatern(1.5, 0.5, 1),
		"Matern5/2": kernel.NewMatern(2.5, 0.5, 1),
	}
	return runVariants(opts, "kernel ablation", variants, func(tpl *engine.LoopConfig, k kernel.Kernel) {
		tpl.Kernel = k
	})
}

// Log2PAblation compares linear p scaling against the log2(p) feature
// transform proposed in §V-D.
func Log2PAblation(opts Options) (*AblationResult, error) {
	if err := opts.setDefaults(); err != nil {
		return nil, err
	}
	variants := map[string]bool{"linear-p": false, "log2-p": true}
	res := &AblationResult{FinalCostRMSE: map[string]float64{}, FinalCumCost: map[string]float64{}}
	tb := &report.Table{Header: []string{"variant", "final cost RMSE (median)", "final CC (median)"}}
	for _, name := range sortedKeys(variants) {
		opt := variants[name]
		groups, err := runBatch(opts, opts.Seed+5, ablationSpec(opts, engine.RandGoodness{}), engine.LoopConfig{Log2P: opt})
		if err != nil {
			return nil, err
		}
		for _, trs := range groups {
			recordVariant(res, tb, name, trs)
		}
	}
	fmt.Fprintln(opts.Out, "§V-D ablation: log2(p) feature transform")
	return res, tb.Write(opts.Out)
}

// GoodnessBaseAblation sweeps the RandGoodness base (the paper argues for
// 10; higher bases skew harder toward cheap candidates).
func GoodnessBaseAblation(opts Options) (*AblationResult, error) {
	if err := opts.setDefaults(); err != nil {
		return nil, err
	}
	res := &AblationResult{FinalCostRMSE: map[string]float64{}, FinalCumCost: map[string]float64{}}
	tb := &report.Table{Header: []string{"variant", "final cost RMSE (median)", "final CC (median)"}}
	for _, base := range []float64{2, 10, 100} {
		name := fmt.Sprintf("base=%g", base)
		groups, err := runBatch(opts, opts.Seed+6, ablationSpec(opts, engine.RandGoodness{Base: base}), engine.LoopConfig{})
		if err != nil {
			return nil, err
		}
		for _, trs := range groups {
			recordVariant(res, tb, name, trs)
		}
	}
	fmt.Fprintln(opts.Out, "ablation: RandGoodness base")
	return res, tb.Write(opts.Out)
}

// MemLimitSensitivity sweeps the memory limit across dataset quantiles and
// reports RGMA's regret and early-termination behaviour — an analysis the
// paper motivates but does not include.
func MemLimitSensitivity(opts Options) (map[string]float64, error) {
	if err := opts.setDefaults(); err != nil {
		return nil, err
	}
	mem := opts.Dataset.Mem(nil)
	out := make(map[string]float64)
	tb := &report.Table{Header: []string{"L_mem quantile", "L_mem (MB)", "median final CR", "median iterations", "early stops"}}
	for _, q := range []float64{0.5, 0.75, 0.9, 0.97} {
		limit := stats.Quantile(mem, q)
		groups, err := runBatch(opts, opts.Seed+7, ablationSpec(opts, engine.RGMA{}), engine.LoopConfig{MemLimitMB: limit})
		if err != nil {
			return nil, err
		}
		for _, trs := range groups {
			finals := make([]float64, len(trs))
			iters := make([]float64, len(trs))
			early := 0
			for i, tr := range trs {
				if n := len(tr.CumRegret); n > 0 {
					finals[i] = tr.CumRegret[n-1]
				}
				iters[i] = float64(tr.Iterations())
				if tr.Reason == engine.StopMemoryLimit {
					early++
				}
			}
			name := fmt.Sprintf("q=%.2f", q)
			out[name] = stats.Median(finals)
			tb.Add(name, limit, stats.Median(finals), stats.Median(iters), early)
		}
	}
	fmt.Fprintln(opts.Out, "ablation: memory-limit sensitivity (RGMA)")
	return out, tb.Write(opts.Out)
}

// SubcyclingAblation is covered in the amr/cluster packages; this variant
// compares HyperoptEvery cadences (model quality vs loop cost).
func HyperoptCadenceAblation(opts Options) (*AblationResult, error) {
	if err := opts.setDefaults(); err != nil {
		return nil, err
	}
	res := &AblationResult{FinalCostRMSE: map[string]float64{}, FinalCumCost: map[string]float64{}}
	tb := &report.Table{Header: []string{"variant", "final cost RMSE (median)", "final CC (median)"}}
	for _, every := range []int{1, 5, 10, 25} {
		name := fmt.Sprintf("hyperopt-every=%d", every)
		opts.HyperoptEvery = every
		groups, err := runBatch(opts, opts.Seed+8, ablationSpec(opts, engine.RandGoodness{}), engine.LoopConfig{})
		if err != nil {
			return nil, err
		}
		for _, trs := range groups {
			recordVariant(res, tb, name, trs)
		}
	}
	fmt.Fprintln(opts.Out, "ablation: hyperparameter refit cadence")
	return res, tb.Write(opts.Out)
}

func runVariants(opts Options, title string, variants map[string]kernel.Kernel, apply func(*engine.LoopConfig, kernel.Kernel)) (*AblationResult, error) {
	res := &AblationResult{FinalCostRMSE: map[string]float64{}, FinalCumCost: map[string]float64{}}
	tb := &report.Table{Header: []string{"variant", "final cost RMSE (median)", "final CC (median)"}}
	names := make([]string, 0, len(variants))
	for name := range variants {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		var tpl engine.LoopConfig
		apply(&tpl, variants[name])
		groups, err := runBatch(opts, opts.Seed+4, ablationSpec(opts, engine.RandGoodness{}), tpl)
		if err != nil {
			return nil, err
		}
		for _, trs := range groups {
			recordVariant(res, tb, name, trs)
		}
	}
	fmt.Fprintln(opts.Out, title)
	return res, tb.Write(opts.Out)
}

func recordVariant(res *AblationResult, tb *report.Table, name string, trs []*engine.Trajectory) {
	finalsR := make([]float64, 0, len(trs))
	finalsC := make([]float64, 0, len(trs))
	for _, tr := range trs {
		if n := len(tr.CostRMSE); n > 0 {
			finalsR = append(finalsR, tr.CostRMSE[n-1])
			finalsC = append(finalsC, tr.CumCost[n-1])
		}
	}
	mr, mc := stats.Median(finalsR), stats.Median(finalsC)
	res.FinalCostRMSE[name] = mr
	res.FinalCumCost[name] = mc
	tb.Add(name, mr, mc)
}

// ablationSpec is the single configuration every ablation varies: one
// policy at the paper's n_init=50 (scaled to the dataset).
func ablationSpec(opts Options, p engine.Policy) []batchSpec {
	return []batchSpec{{Policy: p, NInit: scaleNInit(opts.Dataset, 50)}}
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// SurrogateAblation compares the paper's single global GP against the
// partitioned local-model (treed GP) surrogate its future work proposes.
func SurrogateAblation(opts Options) (*AblationResult, error) {
	if err := opts.setDefaults(); err != nil {
		return nil, err
	}
	res := &AblationResult{FinalCostRMSE: map[string]float64{}, FinalCumCost: map[string]float64{}}
	tb := &report.Table{Header: []string{"variant", "final cost RMSE (median)", "final CC (median)"}}
	variants := []struct {
		name  string
		model *engine.ModelSpec
	}{
		{"flat-gp", nil},
		{"treed-gp-64", &engine.ModelSpec{Name: engine.ModelTreed, LeafSize: 64}},
		{"treed-gp-32", &engine.ModelSpec{Name: engine.ModelTreed, LeafSize: 32}},
		{"sparse-gp-48", &engine.ModelSpec{Name: engine.ModelSparse, Inducing: 48}},
	}
	for _, v := range variants {
		groups, err := runBatch(opts, opts.Seed+10, ablationSpec(opts, engine.RandGoodness{}), engine.LoopConfig{Model: v.model})
		if err != nil {
			return nil, err
		}
		for _, trs := range groups {
			recordVariant(res, tb, v.name, trs)
		}
	}
	fmt.Fprintln(opts.Out, "ablation: surrogate model (flat vs treed local models)")
	return res, tb.Write(opts.Out)
}
