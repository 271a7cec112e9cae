package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"alamr/internal/engine"
	"alamr/internal/obs"
	"alamr/internal/online"
	"alamr/internal/serve"
)

// runOnlineWorkload runs online-sim.json campaigns one after another, each
// in a fresh child process running the spec as al-online -spec does, with
// a checkpoint after every experiment into a scratch directory. Nothing
// carries over between campaigns.
func runOnlineWorkload(b *bench) (*outcome, error) {
	const name = "online-sim"
	// Set-up is parsing the spec (the sim lab needs no dataset) and
	// starting a child process up to its loaded spec, as al-online does
	// before its campaign starts. Work a campaign process does at start-up
	// shows here as well as in every campaign's wall time.
	var spec engine.CampaignSpec
	var specS []float64
	specFile := filepath.Join(specDir, name+".json")
	setup, err := medianSetup(setupReps, func() error {
		t0 := time.Now()
		var err error
		if spec, err = loadSpec(name, 0); err != nil {
			return err
		}
		specS = append(specS, time.Since(t0).Seconds())
		return exec.Command(b.exe, "child", "-setup-only", "-spec", specFile).Run()
	})
	if err != nil {
		return nil, err
	}

	out := newOutcome()
	runOne := func(seed int64, traced bool) (childRun, bool) {
		s := spec
		s.Seed = seed
		c, err := b.runChild(s, traced)
		out.attempted++
		what := fmt.Sprintf("%s seed %d traced=%t", name, seed, traced)
		if err == nil {
			err = b.oracle.check(name, s, c.result)
		}
		if err == nil && !c.stats.LabState {
			err = errors.New("the final checkpoint carries no lab state")
		}
		if err != nil {
			out.fail(what, err)
			return c, false
		}
		return c, true
	}

	if !b.trace {
		u0, start := selfUsage(), time.Now()
		var walls []float64
		var childCPU, peak float64
		for i := 0; time.Since(start) < b.seconds; i++ {
			c, ok := runOne(campaignSeed(b.seed, i), false)
			childCPU += c.use.cpuS
			peak = max(peak, c.use.peakRSSMB)
			if ok {
				walls = append(walls, c.wall)
			}
		}
		wall, u1 := time.Since(start).Seconds(), selfUsage()
		out.values["setup_s"] = setup
		out.values["campaigns_per_s"] = float64(len(walls)) / wall
		out.values["campaign_p50_s"] = median(walls)
		out.values["cpu_s_per_campaign"] = (childCPU + u1.cpuS - u0.cpuS) / float64(out.attempted)
		out.values["peak_rss_mb"] = peak
		out.notef("%s: %d campaigns in %.1f s, campaign_p50_s over %d samples", name, out.attempted, wall, len(walls))
		return out, nil
	}

	var l layerTotals
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < b.seconds; i++ {
		seed := campaignSeed(b.seed, i)
		plain, ok := runOne(seed, false)
		if !ok {
			continue
		}
		traced, ok := runOne(seed, true)
		if !ok {
			continue
		}
		if !bytes.Equal(plain.result, traced.result) {
			out.fail(fmt.Sprintf("%s seed %d traced", name, seed), errors.New("traced result differs from the untraced one"))
			continue
		}
		// The traced child's wall also holds the amr re-timing, so the
		// overhead compares the campaigns' own walls.
		l.addCampaign(name, plain.wall, traced.stats.WallS-plain.stats.WallS)
		l.addSelections(plain.result)
		l.addGo(1, plain.wall, plain.use.cpuS, plain.stats.AllocBytes, plain.stats.GCCycles)
		l.addPhases(traced.stats.Phases, traced.stats.WallS)
		l.addOnline(traced.stats.Lab, 1, traced.stats.WallS, []float64{float64(traced.stats.CheckpointBytes)})
	}
	l.report(out)
	out.values["engine.spec_load_s"] = median(specS)
	return out, nil
}

// childRun is one finished child campaign as its parent saw it.
type childRun struct {
	wall   float64
	use    usage
	result []byte
	stats  childStats
}

// childStats is what a child campaign reports about itself.
type childStats struct {
	WallS           float64            `json:"wall_s"`
	AllocBytes      uint64             `json:"alloc_bytes"`
	GCCycles        uint32             `json:"gc_cycles"`
	CheckpointBytes int64              `json:"checkpoint_bytes"`
	LabState        bool               `json:"lab_state"`
	Phases          map[string]float64 `json:"phases,omitempty"`
	Lab             labTotals          `json:"lab"`
}

// runChild runs one online campaign in a child process in its own scratch
// directory.
func (b *bench) runChild(spec engine.CampaignSpec, traced bool) (childRun, error) {
	var c childRun
	dir, err := os.MkdirTemp(b.work, "online-")
	if err != nil {
		return c, err
	}
	defer os.RemoveAll(dir)
	o := *spec.Online
	o.CheckpointPath = filepath.Join(dir, "campaign.ckpt")
	spec.Online = &o
	data, err := spec.Marshal()
	if err != nil {
		return c, err
	}
	specPath, outPath, statsPath := filepath.Join(dir, "spec.json"), filepath.Join(dir, "result.json"), filepath.Join(dir, "stats.json")
	if err := os.WriteFile(specPath, data, 0o644); err != nil {
		return c, err
	}
	args := []string{"child", "-spec", specPath, "-out", outPath, "-stats", statsPath}
	if traced {
		args = append(args, "-trace")
	}
	ctx, cancel := context.WithTimeout(context.Background(), campaignTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, b.exe, args...)
	cmd.Dir = dir
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	t0 := time.Now()
	err = cmd.Run()
	c.wall = time.Since(t0).Seconds()
	if cmd.ProcessState != nil {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			c.use = fromRusage(ru)
		}
	}
	if err != nil {
		return c, fmt.Errorf("child campaign: %w", err)
	}
	if c.result, err = os.ReadFile(outPath); err != nil {
		return c, err
	}
	raw, err := os.ReadFile(statsPath)
	if err != nil {
		return c, err
	}
	return c, json.Unmarshal(raw, &c.stats)
}

// childMain (campaignbench child) runs one online spec the way al-online
// -spec does and writes its canonical result and its own statistics. With
// -trace it also binds a fresh obs registry, runs the "sim" lab behind the
// timing wrapper, and re-times the amr calls afterwards.
func childMain(args []string) int {
	fs := flag.NewFlagSet("child", flag.ExitOnError)
	specPath := fs.String("spec", "", "campaign spec")
	outPath := fs.String("out", "", "where to write the canonical result")
	statsPath := fs.String("stats", "", "where to write the child's statistics")
	traced := fs.Bool("trace", false, "trace the campaign")
	setupOnly := fs.Bool("setup-only", false, "load the spec and exit")
	_ = fs.Parse(args)
	if err := runChildCampaign(*specPath, *outPath, *statsPath, *traced, *setupOnly); err != nil {
		fmt.Fprintf(os.Stderr, "campaignbench child: %v\n", err)
		return 1
	}
	return 0
}

func runChildCampaign(specPath, outPath, statsPath string, traced, setupOnly bool) error {
	var rec *labRecorder
	var reg *obs.Registry
	if traced {
		rec = registerTimingLab()
		rec.on.Store(true)
		reg = obs.NewRegistry()
		obs.Enable(reg, nil)
	}
	spec, ds, err := engine.LoadSpecForRun(specPath, "")
	if err != nil || setupOnly {
		return err
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	res, err := online.RunSpec(spec, ds)
	wall := time.Since(t0).Seconds()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return err
	}
	data, err := serve.MarshalResult(res)
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}

	st := childStats{WallS: wall, AllocBytes: m1.TotalAlloc - m0.TotalAlloc, GCCycles: m1.NumGC - m0.NumGC}
	ckpt, err := os.ReadFile(spec.Online.CheckpointPath)
	if err != nil {
		return err
	}
	st.CheckpointBytes = int64(len(ckpt))
	var ck struct {
		LabState json.RawMessage `json:"lab_state"`
	}
	if err := json.Unmarshal(ckpt, &ck); err != nil {
		return fmt.Errorf("decoding the final checkpoint: %w", err)
	}
	st.LabState = len(ck.LabState) > 0
	if traced {
		obs.Disable()
		st.Phases = phaseSums(reg)
		if st.Lab, err = retime(rec.take()); err != nil {
			return err
		}
	}
	raw, err := json.Marshal(st)
	if err != nil {
		return err
	}
	return os.WriteFile(statsPath, raw, 0o644)
}
