package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"alamr/internal/dataset"
	"alamr/internal/engine"
	"alamr/internal/serve"
)

// The benchmark reads its inputs relative to the repository root.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func mustDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	ds, err := dataset.LoadFile(datasetPath)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func mustOracle(t *testing.T) oracle {
	t.Helper()
	o, err := loadOracle(oraclePath)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestOracleCatchesTamperedResult(t *testing.T) {
	const name = "replay-fidelity"
	ds, or := mustDataset(t), mustOracle(t)
	spec, err := loadSpec(name, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := runInProcess(name, spec, ds)
	if c.err != nil {
		t.Fatal(c.err)
	}
	if err := or.check(name, spec, c.result); err != nil {
		t.Fatalf("untampered result rejected: %v", err)
	}

	// A changed byte misses the recorded digest.
	tampered := bytes.Replace(c.result, []byte(`"Seed": 1`), []byte(`"Seed": 2`), 1)
	if bytes.Equal(tampered, c.result) {
		t.Fatal("tampering left the result unchanged")
	}
	if err := or.check(name, spec, tampered); err == nil || !strings.Contains(err.Error(), "digest") {
		t.Fatalf("tampered result passed the digest check: %v", err)
	}

	// Without a recorded digest the structural checks still fire.
	other := spec
	other.Seed = seedPool + 1000
	if _, ok := or[oracleKey(name, other.Seed)]; ok {
		t.Fatal("test seed unexpectedly in the oracle")
	}
	if err := or.check(name, other, c.result); err != nil {
		t.Fatalf("structurally sound result rejected: %v", err)
	}
	tr, err := decodeTrajectory(c.result)
	if err != nil {
		t.Fatal(err)
	}
	for what, mutate := range map[string]func(*engine.Trajectory){
		"fault stop":     func(tr *engine.Trajectory) { tr.Reason = engine.StopFault },
		"short run":      func(tr *engine.Trajectory) { tr.Selected = tr.Selected[:len(tr.Selected)-1] },
		"missing RMSE":   func(tr *engine.Trajectory) { tr.CostRMSE = tr.CostRMSE[1:] },
		"regret dropped": func(tr *engine.Trajectory) { tr.CumRegret = nil },
	} {
		bad := *tr
		mutate(&bad)
		data, err := serve.MarshalResult(&bad)
		if err != nil {
			t.Fatal(err)
		}
		if err := or.check(name, other, data); err == nil {
			t.Errorf("%s: tampered result passed the structural checks", what)
		}
	}
}

func TestGPReissueReproducesCampaign(t *testing.T) {
	const name = "replay-rgma"
	ds := mustDataset(t)
	spec, err := loadSpec(name, 3)
	if err != nil {
		t.Fatal(err)
	}
	c := runInProcess(name, spec, ds)
	if c.err != nil {
		t.Fatal(c.err)
	}
	tr, err := decodeTrajectory(c.result)
	if err != nil {
		t.Fatal(err)
	}
	times, faithful, err := reissueReplay(ds, spec, tr)
	if err != nil {
		t.Fatal(err)
	}
	if !faithful {
		t.Fatal("re-issued models do not end on the campaign's hyperparameters")
	}
	if want := len(tr.Selected) / spec.HyperoptEvery; times.refits != want {
		t.Errorf("re-issued %d refits, the campaign did %d", times.refits, want)
	}
}

// TestTimingLabLeavesResultsAlone runs one online campaign through the
// plain "sim" lab and one through the timing wrapper: the results must be
// bitwise equal and the wrapper's checkpoint must carry the lab state.
func TestTimingLabLeavesResultsAlone(t *testing.T) {
	const name = "online-sim"
	spec, err := loadSpec(name, 5)
	if err != nil {
		t.Fatal(err)
	}
	rec := registerTimingLab()
	results := map[bool][]byte{}
	for _, traced := range []bool{false, true} {
		rec.on.Store(traced)
		s := spec
		o := *s.Online
		o.CheckpointPath = filepath.Join(t.TempDir(), "campaign.ckpt")
		s.Online = &o
		c := runInProcess(name, s, nil)
		if c.err != nil {
			t.Fatal(c.err)
		}
		results[traced] = c.result
		if !traced {
			continue
		}
		ckpt, err := os.ReadFile(o.CheckpointPath)
		if err != nil {
			t.Fatal(err)
		}
		var ck struct {
			LabState json.RawMessage `json:"lab_state"`
		}
		if err := json.Unmarshal(ckpt, &ck); err != nil || len(ck.LabState) == 0 {
			t.Errorf("checkpoint written through the wrapper has no lab state (err=%v)", err)
		}
	}
	rec.on.Store(false)
	if !bytes.Equal(results[false], results[true]) {
		t.Fatal("the timing wrapper changed the campaign's result")
	}
	if err := mustOracle(t).check(name, spec, results[true]); err != nil {
		t.Fatal(err)
	}
	labs := rec.take()
	if len(labs) != 1 {
		t.Fatalf("recorder kept %d labs, want 1", len(labs))
	}
	tot, err := retime(labs)
	if err != nil {
		t.Fatal(err)
	}
	if tot.Unfaithful != 0 || tot.Runs == 0 || tot.RefSolves == 0 || tot.CellUpdates <= 0 {
		t.Errorf("implausible lab totals %+v", tot)
	}
}

func TestEveryCampaignSeedHasADigest(t *testing.T) {
	or := mustOracle(t)
	for w := int64(-3); w < 50; w++ {
		for i := 0; i < 3*seedPool; i++ {
			s := campaignSeed(w, i)
			for _, name := range localSpecs {
				if _, ok := or[oracleKey(name, s)]; !ok {
					t.Fatalf("no digest for %s seed %d", name, s)
				}
			}
		}
	}
}

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(b.Workloads), len(workloads))
	}
	for _, c := range []struct {
		what       string
		json, code []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.json) != len(c.code) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the code %d", c.what, len(c.json), len(c.code))
			continue
		}
		for i := range c.code {
			if c.json[i] != c.code[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, code %+v", c.what, i, c.json[i], c.code[i])
			}
		}
	}
}
