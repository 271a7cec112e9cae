// Package experiments contains one driver per table and figure of the
// paper's evaluation (§V), plus the ablations discussed in §V-D. Each driver
// takes a dataset and options, runs the required AL campaigns, and renders
// text/CSV output whose rows and series correspond to what the paper plots.
package experiments

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"alamr/internal/amr"
	"alamr/internal/dataset"
	"alamr/internal/engine"
	"alamr/internal/report"
	"alamr/internal/stats"
)

// Options control every experiment driver.
type Options struct {
	Dataset *dataset.Dataset
	Out     io.Writer // defaults to os.Stdout
	CSVDir  string    // when set, each experiment also writes CSV series here

	Partitions    int   // AL trajectories per configuration (default 10)
	MaxIterations int   // AL iterations per trajectory (default 150, the paper's Fig 2 horizon; 0 = exhaust pool)
	Workers       int   // parallel trajectories (default GOMAXPROCS)
	Seed          int64 // master seed
	NTest         int   // test partition size (default 200, scaled down for small datasets)
	HyperoptEvery int   // hyperparameter refit cadence (default 10)
}

func (o *Options) setDefaults() error {
	if o.Dataset == nil || o.Dataset.Len() == 0 {
		return fmt.Errorf("experiments: Options.Dataset is required")
	}
	if o.Out == nil {
		o.Out = os.Stdout
	}
	if o.Partitions <= 0 {
		o.Partitions = 10
	}
	if o.MaxIterations < 0 {
		o.MaxIterations = 0
	} else if o.MaxIterations == 0 {
		o.MaxIterations = 150
	}
	if o.NTest <= 0 {
		o.NTest = o.Dataset.Len() / 3
		if o.NTest > 200 {
			o.NTest = 200
		}
	}
	if o.HyperoptEvery <= 0 {
		o.HyperoptEvery = 10
	}
	return nil
}

func (o *Options) writeCSV(name string, names []string, series [][]float64) error {
	if o.CSVDir == "" {
		return nil
	}
	if err := os.MkdirAll(o.CSVDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(o.CSVDir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	if err := report.WriteCSVSeries(f, names, series); err != nil {
		return err
	}
	return f.Close()
}

// TableI prints the dataset summary table (paper Table I) and returns the
// rows.
func TableI(opts Options) ([]dataset.SummaryRow, error) {
	if err := opts.setDefaults(); err != nil {
		return nil, err
	}
	rows := opts.Dataset.TableI()
	tb := &report.Table{Header: []string{"quantity", "min", "median", "mean", "max"}}
	for _, r := range rows {
		tb.Add(r.Name, r.Min, r.Median, r.Mean, r.Max)
	}
	fmt.Fprintf(opts.Out, "Table I: parameters of the AMR shock-bubble dataset (%d samples, %d unique combos)\n",
		opts.Dataset.Len(), opts.Dataset.UniqueCombos())
	if err := tb.Write(opts.Out); err != nil {
		return nil, err
	}
	costs := opts.Dataset.Cost(nil)
	ratio := stats.Max(costs) / stats.Min(costs)
	fmt.Fprintf(opts.Out, "cost ratio (most/least expensive) = %.3g (paper: 5.4e3)\n", ratio)
	fmt.Fprintf(opts.Out, "cost-memory rank correlation = %.3f (high values make cost-aware policies implicitly memory-safe)\n",
		stats.Spearman(costs, opts.Dataset.Mem(nil)))
	return rows, nil
}

// Fig1Config controls the refinement-progression figure.
type Fig1Config struct {
	R0, RhoIn float64
	Mx        int
	Levels    []int   // maxlevel values to render (default 1..4)
	TEnd      float64 // simulation horizon (default 0.15)
	Width     int     // render width (default 72)
}

// Fig1 reproduces the paper's Fig 1: the shock-bubble solution rendered at
// increasing refinement depth, demonstrating how added levels reveal finer
// features (and cost more). Returns the per-level work stats.
func Fig1(opts Options, cfg Fig1Config) ([]amr.WorkStats, error) {
	if err := opts.setDefaults(); err != nil {
		return nil, err
	}
	if cfg.R0 == 0 {
		cfg.R0 = 0.3
	}
	if cfg.RhoIn == 0 {
		cfg.RhoIn = 0.1
	}
	if cfg.Mx == 0 {
		cfg.Mx = 8
	}
	if len(cfg.Levels) == 0 {
		cfg.Levels = []int{1, 2, 3, 4}
	}
	if cfg.TEnd == 0 {
		cfg.TEnd = 0.15
	}
	if cfg.Width == 0 {
		cfg.Width = 72
	}
	var out []amr.WorkStats
	for _, lvl := range cfg.Levels {
		sb := amr.ShockBubble{R0: cfg.R0, RhoIn: cfg.RhoIn}
		mcfg := sb.DefaultDomain(cfg.Mx, lvl)
		mesh, err := amr.NewMesh(mcfg)
		if err != nil {
			return nil, err
		}
		st, err := mesh.Run(cfg.TEnd, nil)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(opts.Out, "\nFig 1 — maxlevel=%d: steps=%d cellUpdates=%d leaves=%d (per level %v)\n",
			lvl, st.Steps, st.CellUpdates, st.FinalPatches, st.PatchesPerLevel)
		fmt.Fprint(opts.Out, mesh.RenderASCII(cfg.Width, cfg.Width/4))
		out = append(out, st)
	}
	return out, nil
}

// fig2Policies are the four memory-unaware policies the paper compares in
// Fig 2.
func fig2Policies() []engine.Policy {
	return []engine.Policy{engine.RandUniform{}, engine.MaxSigma{}, engine.MinPred{}, engine.RandGoodness{}}
}

// Fig2 reproduces the cost-distribution violins of Fig 2: for each
// memory-unaware policy, one AL trajectory with n_init=50 selects
// MaxIterations samples, and the distribution of the selected jobs' actual
// costs is summarized.
func Fig2(opts Options) (map[string]stats.ViolinSummary, error) {
	if err := opts.setDefaults(); err != nil {
		return nil, err
	}
	nInit := scaleNInit(opts.Dataset, 50)
	var specs []batchSpec
	for _, p := range fig2Policies() {
		specs = append(specs, batchSpec{Policy: p, NInit: nInit})
	}
	opts.Partitions = 1 // Fig 2 shows a single trajectory per policy
	groups, err := runBatch(opts, opts.Seed, specs, engine.LoopConfig{})
	if err != nil {
		return nil, err
	}
	out := make(map[string]stats.ViolinSummary)
	fmt.Fprintf(opts.Out, "Fig 2: cost distributions of the first %d AL selections (n_init=%d)\n",
		opts.MaxIterations, nInit)
	var names []string
	var series [][]float64
	for _, spec := range specs {
		trs := groups[spec.Key()]
		costs := trs[0].SelectedCost
		v := stats.Violin(costs, 24)
		out[spec.Policy.Name()] = v
		fmt.Fprintln(opts.Out)
		fmt.Fprint(opts.Out, report.ASCIIViolin(spec.Policy.Name(), v, 40))
		names = append(names, spec.Policy.Name())
		series = append(series, costs)
	}
	if err := opts.writeCSV("fig2_selected_costs.csv", names, series); err != nil {
		return nil, err
	}
	return out, nil
}

// Fig3Result groups the cumulative-regret bands per configuration.
type Fig3Result struct {
	Bands  map[string]stats.Band
	Groups map[string][]*engine.Trajectory
	Limit  float64 // L_mem in MB
}

// Fig3 reproduces the cumulative-regret comparison: the four memory-unaware
// policies at n_init=50 versus RGMA at n_init ∈ {1, 50, 100}, with the
// paper's memory limit. RGMA's CR should flatten while the others grow.
func Fig3(opts Options) (*Fig3Result, error) {
	if err := opts.setDefaults(); err != nil {
		return nil, err
	}
	limit := engine.PaperMemLimitMB(opts.Dataset)
	specs := fig3Specs(opts.Dataset)
	groups, err := runBatch(opts, opts.Seed, specs, engine.LoopConfig{MemLimitMB: limit})
	if err != nil {
		return nil, err
	}
	res := &Fig3Result{Bands: make(map[string]stats.Band), Groups: groups, Limit: limit}
	fmt.Fprintf(opts.Out, "Fig 3: cumulative regret, L_mem=%.4g MB, %d partitions, %d iterations\n",
		limit, opts.Partitions, opts.MaxIterations)
	tb := &report.Table{Header: []string{"config", "median final CR", "q25", "q75", "median final CC", "violations (median)"}}
	var chartNames []string
	var chartSeries [][]float64
	var keys []string
	for _, s := range specs {
		keys = append(keys, s.Key())
	}
	sort.Strings(keys)
	for _, key := range keys {
		trs := groups[key]
		band, err := aggregateCurves(trs, "cum-regret")
		if err != nil {
			return nil, err
		}
		res.Bands[key] = band
		last := len(band.Mid) - 1
		ccBand, _ := aggregateCurves(trs, "cum-cost")
		viol := make([]float64, len(trs))
		for i, tr := range trs {
			for _, v := range tr.Violation {
				if v {
					viol[i]++
				}
			}
		}
		tb.Add(key, band.Mid[last], band.Lo[last], band.Hi[last], ccBand.Mid[len(ccBand.Mid)-1], stats.Median(viol))
		chartNames = append(chartNames, key)
		chartSeries = append(chartSeries, band.Mid)
	}
	if err := tb.Write(opts.Out); err != nil {
		return nil, err
	}
	fmt.Fprintln(opts.Out)
	fmt.Fprint(opts.Out, report.ASCIIChart("cumulative regret (median across partitions)", chartNames, chartSeries, 64, 16))
	if err := opts.writeCSV("fig3_cum_regret.csv", chartNames, chartSeries); err != nil {
		return nil, err
	}
	return res, nil
}

func fig3Specs(ds *dataset.Dataset) []batchSpec {
	n50 := scaleNInit(ds, 50)
	n100 := scaleNInit(ds, 100)
	return []batchSpec{
		{Policy: engine.RandUniform{}, NInit: n50},
		{Policy: engine.MaxSigma{}, NInit: n50},
		{Policy: engine.MinPred{}, NInit: n50},
		{Policy: engine.RandGoodness{}, NInit: n50},
		{Policy: engine.RGMA{}, NInit: 1},
		{Policy: engine.RGMA{}, NInit: n50},
		{Policy: engine.RGMA{}, NInit: n100},
	}
}

// Fig4Result carries the error-tradeoff curves.
type Fig4Result struct {
	CostRMSE map[string]stats.Band
	MemRMSE  map[string]stats.Band
	CumCost  map[string]stats.Band
	Groups   map[string][]*engine.Trajectory
}

// Fig4 reproduces the error/cost trade-off analysis: cost- and memory-model
// RMSE versus iteration for every configuration of Fig 3, plus the
// cumulative cost axis needed for RMSE-vs-CC plots. The paper's headline
// observations — cost-aware policies achieve lower RMSE per unit of
// cumulative cost; RGMA with n_init=1 remains competitive — are printed as
// a final summary table.
func Fig4(opts Options) (*Fig4Result, error) {
	if err := opts.setDefaults(); err != nil {
		return nil, err
	}
	limit := engine.PaperMemLimitMB(opts.Dataset)
	specs := fig3Specs(opts.Dataset)
	groups, err := runBatch(opts, opts.Seed+1, specs, engine.LoopConfig{MemLimitMB: limit})
	if err != nil {
		return nil, err
	}
	res := &Fig4Result{
		CostRMSE: make(map[string]stats.Band),
		MemRMSE:  make(map[string]stats.Band),
		CumCost:  make(map[string]stats.Band),
		Groups:   groups,
	}
	tb := &report.Table{Header: []string{"config", "final cost RMSE", "final mem RMSE", "final CC", "RMSE per unit CC"}}
	var names []string
	var rmseSeries, ccSeries [][]float64
	var keys []string
	for _, s := range specs {
		keys = append(keys, s.Key())
	}
	sort.Strings(keys)
	for _, key := range keys {
		trs := groups[key]
		cb, err := aggregateCurves(trs, "cost-rmse")
		if err != nil {
			return nil, err
		}
		mb, _ := aggregateCurves(trs, "mem-rmse")
		cc, _ := aggregateCurves(trs, "cum-cost")
		res.CostRMSE[key] = cb
		res.MemRMSE[key] = mb
		res.CumCost[key] = cc
		last := len(cb.Mid) - 1
		eff := math.NaN()
		if cc.Mid[len(cc.Mid)-1] > 0 {
			eff = cb.Mid[last] / cc.Mid[len(cc.Mid)-1]
		}
		tb.Add(key, cb.Mid[last], mb.Mid[len(mb.Mid)-1], cc.Mid[len(cc.Mid)-1], eff)
		names = append(names, key)
		rmseSeries = append(rmseSeries, cb.Mid)
		ccSeries = append(ccSeries, cc.Mid)
	}
	fmt.Fprintf(opts.Out, "Fig 4: prediction-error trade-offs (%d partitions, %d iterations)\n",
		opts.Partitions, opts.MaxIterations)
	if err := tb.Write(opts.Out); err != nil {
		return nil, err
	}
	fmt.Fprintln(opts.Out)
	fmt.Fprint(opts.Out, report.ASCIIChart("cost-model RMSE vs iteration (median)", names, rmseSeries, 64, 16))
	if err := opts.writeCSV("fig4_cost_rmse.csv", names, rmseSeries); err != nil {
		return nil, err
	}
	if err := opts.writeCSV("fig4_cum_cost.csv", names, ccSeries); err != nil {
		return nil, err
	}
	return res, nil
}

// ViolationTimeline reproduces the §V-C analysis of RGMA's
// learning-from-mistakes behaviour: cumulative memory-limit violations per
// iteration for RGMA at each n_init, contrasted with RandUniform. With a
// small Initial partition RGMA must make early mistakes and then learn to
// avoid the limit; with a large one it avoids them from the start.
func ViolationTimeline(opts Options) (map[string][]float64, error) {
	if err := opts.setDefaults(); err != nil {
		return nil, err
	}
	limit := engine.PaperMemLimitMB(opts.Dataset)
	specs := []batchSpec{
		{Policy: engine.RandUniform{}, NInit: scaleNInit(opts.Dataset, 50)},
		{Policy: engine.RGMA{}, NInit: 1},
		{Policy: engine.RGMA{}, NInit: scaleNInit(opts.Dataset, 50)},
		{Policy: engine.RGMA{}, NInit: scaleNInit(opts.Dataset, 100)},
	}
	groups, err := runBatch(opts, opts.Seed+2, specs, engine.LoopConfig{MemLimitMB: limit})
	if err != nil {
		return nil, err
	}
	out := make(map[string][]float64)
	var names []string
	var series [][]float64
	for _, spec := range specs {
		trs := groups[spec.Key()]
		// Median cumulative violation count across partitions.
		curves := make([][]float64, len(trs))
		for i, tr := range trs {
			c := make([]float64, len(tr.Violation))
			var acc float64
			for k, v := range tr.Violation {
				if v {
					acc++
				}
				c[k] = acc
			}
			curves[i] = c
		}
		band := stats.AggregateBand(curves, 0.25, 0.75)
		out[spec.Key()] = band.Mid
		names = append(names, spec.Key())
		series = append(series, band.Mid)
	}
	fmt.Fprintf(opts.Out, "§V-C: cumulative memory-limit violations (L_mem=%.4g MB)\n", limit)
	fmt.Fprint(opts.Out, report.ASCIIChart("cumulative violations (median)", names, series, 64, 12))
	if err := opts.writeCSV("violations.csv", names, series); err != nil {
		return nil, err
	}
	return out, nil
}

// scaleNInit shrinks the paper's n_init values proportionally for smaller
// test datasets so experiments remain runnable end to end.
func scaleNInit(ds *dataset.Dataset, paperValue int) int {
	if ds.Len() >= 600 {
		return paperValue
	}
	v := paperValue * ds.Len() / 600
	if v < 1 {
		v = 1
	}
	return v
}
