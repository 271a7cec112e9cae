package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// metricDef names one reported metric. The lists below are the ones
// BENCHMARK.json declares (TestMetricListsMatchBenchmarkJSON keeps them in
// step).
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics a user of the engine sees, printed untraced.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"campaigns_per_s", "1/s", "higher"},
	{"campaign_p50_s", "s", "lower"},
	{"cpu_s_per_campaign", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// Specs of the canonical set that run without a worker fleet, in the order
// serve-mix submits them: cheapest first, so the median turnaround does not
// hinge on the two slowest campaigns of a burst.
var localSpecs = []string{"replay-fidelity", "online-fidelity", "online-sim", "replay-rgma", "replay-sparse"}

// perLayer are the metrics of single layers, printed by the traced run. A
// workload that does not reach a layer reports 0 for it.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"dataset.load_s", "s", "lower"},
		{"engine.spec_load_s", "s", "lower"},
		{"engine.campaign_s", "s", "lower"},
	}
	for _, s := range localSpecs {
		defs = append(defs, metricDef{"engine.campaign_s." + s, "s", "lower"})
	}
	return append(defs, []metricDef{
		{"engine.campaigns", "count", "higher"},
		{"engine.selections", "count", "higher"},
		{"gp.fit_s", "s", "lower"},
		{"gp.append_s", "s", "lower"},
		{"gp.refit_s", "s", "lower"},
		{"gp.refits", "count", "lower"},
		{"gp.score_predict_s", "s", "lower"},
		{"gp.eval_predict_s", "s", "lower"},
		{"gp.unattributed_frac", "ratio", "lower"},
		{"online.lab_run_s", "s", "lower"},
		{"online.lab_runs", "count", "lower"},
		{"online.surrogate_s", "s", "lower"},
		{"online.checkpoint_bytes", "bytes", "lower"},
		{"amr.reference_run_s", "s", "lower"},
		{"amr.reference_solves", "count", "lower"},
		{"amr.reference_reuse", "ratio", "higher"},
		{"amr.emulate_s", "s", "lower"},
		{"amr.cell_updates", "count", "lower"},
		{"serve.submit_s", "s", "lower"},
		{"serve.queue_wait_s", "s", "lower"},
		{"serve.run_s", "s", "lower"},
		{"serve.worker_util", "ratio", "higher"},
		{"serve.rejected_429", "count", "lower"},
		{"serve.status_p50_ms", "ms", "lower"},
		{"serve.status_reads", "count", "higher"},
		{"serve.store_bytes", "bytes", "lower"},
		{"go.alloc_bytes_per_campaign", "bytes", "lower"},
		{"go.gc_cycles_per_campaign", "count", "lower"},
		{"go.cpu_util", "ratio", "higher"},
		{"obs.fit_s", "s", "lower"},
		{"obs.hyperopt_s", "s", "lower"},
		{"obs.score_s", "s", "lower"},
		{"obs.select_s", "s", "lower"},
		{"obs.run_s", "s", "lower"},
		{"obs.feed_s", "s", "lower"},
		{"obs.checkpoint_write_s", "s", "lower"},
		{"obs.unattributed_frac", "ratio", "lower"},
		{"trace.overhead_s", "s", "lower"},
		{"trace.unfaithful", "count", "lower"},
	}...)
}()

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// medianSetup runs setup reps times and returns the median wall seconds.
func medianSetup(reps int, setup func() error) (float64, error) {
	walls := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		walls = append(walls, time.Since(t0).Seconds())
	}
	return median(walls), nil
}

// usage is a process's CPU and peak-memory reading.
type usage struct {
	cpuS      float64 // user + system
	peakRSSMB float64
}

func fromRusage(ru *syscall.Rusage) usage {
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return usage{
		cpuS:      tv(ru.Utime) + tv(ru.Stime),
		peakRSSMB: float64(ru.Maxrss) / 1024, // Linux reports KiB
	}
}

// selfUsage reads this process's usage so far.
func selfUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{cpuS: math.NaN()}
	}
	return fromRusage(&ru)
}
