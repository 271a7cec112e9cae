package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"alamr/internal/dataset"
	"alamr/internal/engine"
	"alamr/internal/obs"
)

// obsPhases are the obs phase spans the traced run reads back, by the
// metric suffix they are reported under.
var obsPhases = map[string]string{
	"fit":              obs.Labeled(obs.MetricLoopPhaseSeconds, "phase", obs.PhaseFit),
	"hyperopt":         obs.Labeled(obs.MetricLoopPhaseSeconds, "phase", obs.PhaseHyperopt),
	"score":            obs.Labeled(obs.MetricLoopPhaseSeconds, "phase", obs.PhaseScore),
	"select":           obs.Labeled(obs.MetricLoopPhaseSeconds, "phase", obs.PhaseSelect),
	"run":              obs.Labeled(obs.MetricLoopPhaseSeconds, "phase", obs.PhaseRun),
	"feed":             obs.Labeled(obs.MetricLoopPhaseSeconds, "phase", obs.PhaseFeed),
	"checkpoint_write": obs.MetricCheckpointWriteSeconds,
}

// phaseSums reads the total seconds of each obs phase span from reg.
func phaseSums(reg *obs.Registry) map[string]float64 {
	snap := reg.TakeSnapshot()
	sums := make(map[string]float64, len(obsPhases))
	for k, name := range obsPhases {
		sums[k] = snap.Histograms[name].Sum
	}
	return sums
}

// labTotals are the timings a timing lab wrapper collected plus the amr
// calls re-timed on the tuples its campaigns touched.
type labTotals struct {
	Runs        int     `json:"runs"`
	RunS        float64 `json:"run_s"`
	RefSolves   int     `json:"ref_solves"`
	RefRunS     float64 `json:"ref_run_s"`
	RefCalls    int     `json:"ref_calls"`
	EmulateS    float64 `json:"emulate_s"`
	EmulateCall int     `json:"emulate_calls"`
	CellUpdates float64 `json:"cell_updates"`
	// Unfaithful counts re-timings that did not match what the campaign
	// did (distinct reference tuples against the lab's solve count).
	Unfaithful int `json:"unfaithful"`
}

func (t *labTotals) add(o labTotals) {
	t.Runs += o.Runs
	t.RunS += o.RunS
	t.RefSolves += o.RefSolves
	t.RefRunS += o.RefRunS
	t.RefCalls += o.RefCalls
	t.EmulateS += o.EmulateS
	t.EmulateCall += o.EmulateCall
	t.CellUpdates += o.CellUpdates
	t.Unfaithful += o.Unfaithful
}

// layerTotals accumulates a traced run's per-layer numbers across its
// campaigns and turns them into the per-layer metrics.
type layerTotals struct {
	plain      []float64            // untraced campaign walls
	overhead   []float64            // traced minus untraced wall, per campaign
	bySpec     map[string][]float64 // untraced walls by spec
	selections []float64

	goWall, goCPU float64
	goAlloc       uint64
	goGC          uint32
	goN           int

	phases    map[string]float64
	phaseWall float64

	gp         gpTimes
	gpN        int
	gpWall     float64
	unfaithful int

	lab       labTotals
	online    int     // online campaigns the lab totals cover
	onlineRun float64 // their traced wall
	ckptBytes []float64
}

// addCampaign records one campaign pair: the untraced wall and how much
// longer the same campaign ran traced.
func (l *layerTotals) addCampaign(spec string, plain, overhead float64) {
	l.plain = append(l.plain, plain)
	l.overhead = append(l.overhead, overhead)
	if l.bySpec == nil {
		l.bySpec = map[string][]float64{}
	}
	l.bySpec[spec] = append(l.bySpec[spec], plain)
}

// addSelections records how many selections a result holds.
func (l *layerTotals) addSelections(result []byte) {
	var r struct{ CumCost []float64 }
	if json.Unmarshal(result, &r) == nil {
		l.selections = append(l.selections, float64(len(r.CumCost)))
	}
}

// addGo records the Go runtime's view of n untraced campaigns.
func (l *layerTotals) addGo(n int, wall, cpu float64, alloc uint64, gc uint32) {
	l.goWall += wall
	l.goCPU += cpu
	l.goAlloc += alloc
	l.goGC += gc
	l.goN += n
}

// addPhases records the obs phase totals of traced campaigns that took
// wall seconds in all.
func (l *layerTotals) addPhases(sums map[string]float64, wall float64) {
	if l.phases == nil {
		l.phases = map[string]float64{}
	}
	for k, v := range sums {
		l.phases[k] += v
	}
	l.phaseWall += wall
}

// addReissue re-issues a replay campaign's gp calls and records their
// times, or counts the re-issue unfaithful.
func (l *layerTotals) addReissue(ds *dataset.Dataset, spec engine.CampaignSpec, result []byte, wall float64) {
	tr, err := decodeTrajectory(result)
	if err != nil {
		l.unfaithful++
		fmt.Fprintf(os.Stderr, "campaignbench: gp re-issue: %v\n", err)
		return
	}
	t, faithful, err := reissueReplay(ds, spec, tr)
	if err != nil || !faithful {
		l.unfaithful++
		fmt.Fprintf(os.Stderr, "campaignbench: gp re-issue of seed %d does not match the campaign (err=%v)\n", spec.Seed, err)
		return
	}
	l.gp.fit += t.fit
	l.gp.append += t.append
	l.gp.refit += t.refit
	l.gp.score += t.score
	l.gp.eval += t.eval
	l.gp.refits += t.refits
	l.gpN++
	l.gpWall += wall
}

// addOnline records the lab totals and checkpoint size of online campaigns
// whose traced walls sum to wall.
func (l *layerTotals) addOnline(t labTotals, campaigns int, wall float64, ckptBytes []float64) {
	l.lab.add(t)
	l.online += campaigns
	l.onlineRun += wall
	l.ckptBytes = append(l.ckptBytes, ckptBytes...)
}

// report writes the per-layer metrics into out. gp metrics are left out
// when any re-issue was unfaithful: they would time some other
// computation.
func (l *layerTotals) report(out *outcome) {
	v := out.values
	v["engine.campaign_s"] = median(l.plain)
	for spec, walls := range l.bySpec {
		v["engine.campaign_s."+spec] = median(walls)
	}
	v["engine.campaigns"] = float64(len(l.plain))
	v["engine.selections"] = median(l.selections)
	v["trace.overhead_s"] = median(l.overhead)

	if l.goN > 0 {
		n := float64(l.goN)
		v["go.alloc_bytes_per_campaign"] = float64(l.goAlloc) / n
		v["go.gc_cycles_per_campaign"] = float64(l.goGC) / n
		v["go.cpu_util"] = ratio(l.goCPU, l.goWall)
	}

	if l.phaseWall > 0 {
		var covered float64
		for k, s := range l.phases {
			v["obs."+k+"_s"] = s / float64(len(l.plain))
			covered += s
		}
		v["obs.unattributed_frac"] = 1 - covered/l.phaseWall
	}

	v["trace.unfaithful"] = float64(l.unfaithful + l.lab.Unfaithful)
	if l.unfaithful > 0 {
		out.notef("gp metrics withheld as invalid: %d re-issues did not reproduce their campaign", l.unfaithful)
		for _, d := range perLayer {
			if strings.HasPrefix(d.Name, "gp.") {
				out.withheld[d.Name] = true
			}
		}
	} else if l.gpN > 0 {
		n := float64(l.gpN)
		v["gp.fit_s"] = l.gp.fit.Seconds() / n
		v["gp.append_s"] = l.gp.append.Seconds() / n
		v["gp.refit_s"] = l.gp.refit.Seconds() / n
		v["gp.refits"] = float64(l.gp.refits) / n
		v["gp.score_predict_s"] = l.gp.score.Seconds() / n
		v["gp.eval_predict_s"] = l.gp.eval.Seconds() / n
		v["gp.unattributed_frac"] = 1 - l.gp.total().Seconds()/l.gpWall
	}

	if l.online > 0 {
		n := float64(l.online)
		t := l.lab
		v["online.lab_run_s"] = t.RunS / n
		v["online.lab_runs"] = float64(t.Runs) / n
		v["online.surrogate_s"] = (l.onlineRun - t.RunS) / n
		v["online.checkpoint_bytes"] = median(l.ckptBytes)
		v["amr.reference_run_s"] = ratio(t.RefRunS, float64(t.RefCalls))
		v["amr.reference_solves"] = float64(t.RefSolves) / n
		v["amr.reference_reuse"] = 1 - ratio(float64(t.RefSolves), float64(t.Runs))
		v["amr.emulate_s"] = ratio(t.EmulateS, float64(t.EmulateCall))
		v["amr.cell_updates"] = t.CellUpdates / n
	}
}
