package online

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"alamr/internal/dataset"
	"alamr/internal/engine"
)

// specDataset builds a small dataset whose jobs cover distinct grid combos,
// suitable for backing a ReplayLab.
func specDataset(n int, seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	combos := dataset.AllCombos()
	rng.Shuffle(len(combos), func(i, j int) { combos[i], combos[j] = combos[j], combos[i] })
	ds := &dataset.Dataset{}
	for _, c := range combos[:n] {
		wall := 2.0 * math.Pow(float64(c.Mx)/8, 1.5) * math.Pow(2, float64(c.MaxLevel-3)) *
			(1 + c.R0) / (0.3 + c.RhoIn)
		ds.Jobs = append(ds.Jobs, dataset.Job{
			P: c.P, Mx: c.Mx, MaxLevel: c.MaxLevel, R0: c.R0, RhoIn: c.RhoIn,
			WallSec: wall,
			CostNH:  wall * float64(c.P) / 3600,
			MemMB:   0.05 * float64(c.Mx*c.Mx) / 64 * math.Pow(2, float64(c.MaxLevel-3)) / math.Sqrt(float64(c.P)),
		})
	}
	return ds
}

// TestSimLabRegistered: the package's init contributes the "sim" lab to the
// engine registry, so online campaigns are fully spec-describable.
func TestSimLabRegistered(t *testing.T) {
	lab, err := engine.BuildLab(engine.LabSpec{Name: "sim", RefNx: 32, RefTEnd: 0.05, RefSnaps: 3, Seed: 7}, engine.LabDeps{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := lab.(*SimLab); !ok {
		t.Fatalf("sim lab built %T want *SimLab", lab)
	}
	found := false
	for _, name := range engine.LabNames() {
		if name == "sim" {
			found = true
		}
	}
	if !found {
		t.Fatalf("sim missing from LabNames: %v", engine.LabNames())
	}
}

func onlineSpec(ds *dataset.Dataset) engine.CampaignSpec {
	return engine.CampaignSpec{
		Version: engine.SpecVersion,
		Name:    "replay-lab-campaign",
		Mode:    engine.ModeOnline,
		Policy:  engine.PolicySpec{Name: "randgoodness"},
		Seed:    5,
		Online: &engine.OnlineSpec{
			Lab:            engine.LabSpec{Name: "replay"},
			MaxExperiments: 10,
			InitDesign:     []dataset.Combo{ds.Jobs[0].Config()},
		},
	}
}

// TestRunSpecAgainstReplayLab drives a full online campaign through the
// declarative layer with the offline dataset as the lab — the seam where the
// two execution modes meet.
func TestRunSpecAgainstReplayLab(t *testing.T) {
	ds := specDataset(80, 41)
	res, err := RunSpec(onlineSpec(ds), ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PredictedCost) != 10 || len(res.Jobs) != 11 {
		t.Fatalf("campaign ran %d selections, %d jobs", len(res.PredictedCost), len(res.Jobs))
	}
	if !res.Health.Consistent() {
		t.Fatalf("health ledger inconsistent: %+v", res.Health)
	}
	// Every executed job must be a dataset entry (the lab replays, never
	// invents).
	index := map[dataset.Combo]bool{}
	for _, j := range ds.Jobs {
		index[j.Config()] = true
	}
	for _, j := range res.Jobs {
		if !index[j.Config()] {
			t.Fatalf("job %+v not from the dataset", j.Config())
		}
	}
}

// TestRunSpecMatchesDirectRun: the spec layer must configure the identical
// campaign as calling Run with a hand-built Config.
func TestRunSpecMatchesDirectRun(t *testing.T) {
	ds := specDataset(80, 41)
	spec := onlineSpec(ds)
	viaSpec, err := RunSpec(spec, ds)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := Run(engine.NewReplayLab(ds), Config{
		Policy:         engine.RandGoodness{},
		MaxExperiments: 10,
		Seed:           5,
		InitDesign:     []dataset.Combo{ds.Jobs[0].Config()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(viaSpec, direct) {
		t.Fatal("spec-layer campaign differs from the direct Run call")
	}
}

func TestRunSpecValidation(t *testing.T) {
	ds := specDataset(20, 42)
	spec := onlineSpec(ds)
	spec.Mode = engine.ModeReplay
	spec.Online = nil
	spec.Replay = &engine.ReplaySpec{NInit: 5}
	if _, err := RunSpec(spec, ds); err == nil || !strings.Contains(err.Error(), "needs an online spec") {
		t.Fatalf("replay spec accepted by RunSpec: %v", err)
	}

	// The sim lab needs no dataset, so the paper-rule check is what trips.
	spec = onlineSpec(ds)
	spec.Online.Lab = engine.LabSpec{Name: "sim"}
	spec.MemLimitPaperRule = true
	if _, err := RunSpec(spec, nil); err == nil || !strings.Contains(err.Error(), "needs the offline dataset") {
		t.Fatalf("paper rule without dataset accepted: %v", err)
	}
}
