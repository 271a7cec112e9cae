package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"

	"alamr/internal/dataset"
	"alamr/internal/engine"
	"alamr/internal/online"
	"alamr/internal/serve"
)

// oracle maps "<spec>/<seed>" to the SHA-256 of that campaign's canonical
// result bytes (serve.MarshalResult, as al-serve stores them), recorded at
// the commit that introduced the benchmark.
type oracle map[string]string

func oracleKey(spec string, seed int64) string {
	return spec + "/" + strconv.FormatInt(seed, 10)
}

func loadOracle(path string) (oracle, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading result oracle: %w", err)
	}
	var o oracle
	if err := json.Unmarshal(data, &o); err != nil {
		return nil, fmt.Errorf("decoding result oracle %s: %w", path, err)
	}
	return o, nil
}

func digest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// loadSpec reads the canonical spec of that name with its seed replaced.
func loadSpec(name string, seed int64) (engine.CampaignSpec, error) {
	spec, err := engine.LoadCampaignSpec(filepath.Join(specDir, name+".json"))
	if err != nil {
		return engine.CampaignSpec{}, err
	}
	spec.Seed = seed
	return spec, nil
}

// check verifies one campaign's canonical result bytes: the recorded digest
// when the oracle has one for (name, spec.Seed), and always the structural
// checks.
func (o oracle) check(name string, spec engine.CampaignSpec, result []byte) error {
	if want, ok := o[oracleKey(name, spec.Seed)]; ok {
		if got := digest(result); got != want {
			return fmt.Errorf("%s seed %d: result digest %s, oracle has %s", name, spec.Seed, got[:12], want[:12])
		}
	}
	if err := checkStructure(spec, result); err != nil {
		return fmt.Errorf("%s seed %d: %w", name, spec.Seed, err)
	}
	return nil
}

// checkStructure applies the checks that hold for any seed: no fault or
// cancellation stop, the selection count the spec implies, and finite
// cumulative cost (CC), cumulative regret (CR) and error (RMSE for replay,
// one-step MAPE for online) on every selection.
func checkStructure(spec engine.CampaignSpec, result []byte) error {
	dec := json.NewDecoder(bytes.NewReader(result))
	dec.DisallowUnknownFields()
	switch spec.Mode {
	case engine.ModeReplay:
		var tr engine.Trajectory
		if err := dec.Decode(&tr); err != nil {
			return fmt.Errorf("decoding replay result: %w", err)
		}
		if err := checkStop(string(tr.Reason)); err != nil {
			return err
		}
		n := tr.Iterations()
		if want := spec.MaxIterations; want > 0 && n != want {
			return fmt.Errorf("%d selections, the spec implies %d", n, want)
		}
		for _, s := range [][]float64{tr.CumCost, tr.CumRegret, tr.CostRMSE, tr.MemRMSE} {
			if err := checkSeries(s, n); err != nil {
				return err
			}
		}
		if !finite(tr.InitCostRMSE) || !finite(tr.InitMemRMSE) {
			return errors.New("non-finite initial RMSE")
		}
	case engine.ModeOnline:
		var res online.Result
		if err := dec.Decode(&res); err != nil {
			return fmt.Errorf("decoding online result: %w", err)
		}
		if err := checkStop(string(res.Reason)); err != nil {
			return err
		}
		n := len(res.ActualCost)
		if want := spec.Online.MaxExperiments; want > 0 && spec.Online.Budget == 0 && n != want {
			return fmt.Errorf("%d selections, the spec implies %d", n, want)
		}
		for _, s := range [][]float64{res.CumCost, res.CumRegret, res.PredictedCost} {
			if err := checkSeries(s, n); err != nil {
				return err
			}
		}
		if n > 0 && !finite(res.OneStepMAPE()) {
			return errors.New("non-finite one-step MAPE")
		}
		if res.Health.Fatal != 0 {
			return fmt.Errorf("%d fatal lab attempts", res.Health.Fatal)
		}
	default:
		return fmt.Errorf("unknown mode %q", spec.Mode)
	}
	if dec.More() {
		return errors.New("trailing data after the result")
	}
	return nil
}

func checkStop(reason string) error {
	switch engine.StopReason(reason) {
	case engine.StopFault, engine.StopCancelled, "":
		return fmt.Errorf("stop reason %q", reason)
	}
	return nil
}

func checkSeries(s []float64, n int) error {
	if len(s) != n {
		return fmt.Errorf("series of %d values for %d selections", len(s), n)
	}
	for i, v := range s {
		if !finite(v) {
			return fmt.Errorf("non-finite value %g at selection %d", v, i)
		}
	}
	return nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// recordOracle (campaignbench record-oracle) runs every local canonical
// spec under every pool seed and writes the digests. Run it from the root
// of the repository only when a change is meant to alter results.
func recordOracle() error {
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		return err
	}
	ds, err := dataset.LoadFile(datasetPath)
	if err != nil {
		return err
	}
	type job struct {
		name string
		seed int64
	}
	jobs := make(chan job)
	o := oracle{}
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				sum, err := recordOne(ds, j.name, j.seed)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				o[oracleKey(j.name, j.seed)] = sum
				mu.Unlock()
			}
		}()
	}
	for _, name := range localSpecs {
		for seed := int64(1); seed <= seedPool; seed++ {
			jobs <- job{name, seed}
		}
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	data, err := json.MarshalIndent(o, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(oraclePath, append(data, '\n'), 0o644)
}

// recordOne runs one campaign in process and returns its result digest
// after the structural checks pass.
func recordOne(ds *dataset.Dataset, name string, seed int64) (string, error) {
	spec, err := loadSpec(name, seed)
	if err != nil {
		return "", err
	}
	if spec.Online != nil {
		dir, err := os.MkdirTemp(workRoot, "record-")
		if err != nil {
			return "", err
		}
		defer os.RemoveAll(dir)
		o := *spec.Online
		o.CheckpointPath = filepath.Join(dir, "campaign.ckpt")
		spec.Online = &o
	}
	v, err := engine.RunCampaignSpec(context.Background(), spec, ds, nil)
	if err != nil {
		return "", fmt.Errorf("%s seed %d: %w", name, seed, err)
	}
	data, err := serve.MarshalResult(v)
	if err != nil {
		return "", err
	}
	if err := checkStructure(spec, data); err != nil {
		return "", fmt.Errorf("%s seed %d: %w", name, seed, err)
	}
	return digest(data), nil
}
