package online

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"slices"

	"alamr/internal/engine"
	"alamr/internal/faults"
	"alamr/internal/obs"
	"alamr/internal/stats"
)

// checkpointVersion gates the on-disk schema; bump it whenever checkpointFile
// or feedRec changes incompatibly.
const checkpointVersion = 1

// Sentinel errors distinguishing the checkpoint-restore failure modes, so
// operators (and tests) can tell a half-written file from a trashed one from
// a checkpoint that simply belongs to a different campaign. All are wrapped
// with file/context detail — match with errors.Is.
var (
	// ErrCheckpointCorrupt marks checkpoint bytes that do not decode as the
	// expected schema: malformed JSON mid-file, a missing result, or an
	// internally inconsistent record.
	ErrCheckpointCorrupt = errors.New("checkpoint corrupt")
	// ErrCheckpointTruncated marks a checkpoint cut short — an empty file or
	// JSON that ends mid-value, the signature of a crash during an
	// non-atomic copy (the writer itself renames atomically).
	ErrCheckpointTruncated = errors.New("checkpoint truncated")
	// ErrCheckpointModelMismatch marks a checkpoint written under a
	// different surrogate model than the resuming configuration.
	ErrCheckpointModelMismatch = errors.New("checkpoint surrogate model mismatch")
)

// checkpointFile is the versioned JSON schema of a campaign checkpoint. A
// checkpoint carries the full Result so far, the model feed log (replayed to
// rebuild the exact GP state), the policy RNG stream position, and the
// optional lab state — everything a fresh process needs to continue the
// trajectory bitwise-identically.
type checkpointFile struct {
	Version   int             `json:"version"`
	Policy    string          `json:"policy"`
	Seed      int64           `json:"seed"`
	InitLen   int             `json:"init_len"`
	RNGDraws  uint64          `json:"rng_draws"`
	CumCost   float64         `json:"cum_cost"`
	CumRegret float64         `json:"cum_regret"`
	Model     string          `json:"model,omitempty"`
	Fidelity  []int           `json:"fidelity,omitempty"`
	Feeds     []feedRec       `json:"feeds"`
	Result    *Result         `json:"result"`
	LabState  json.RawMessage `json:"lab_state,omitempty"`
	Done      bool            `json:"done,omitempty"`
}

// saveCheckpoint atomically serializes the campaign state: the checkpoint is
// written to a temp file in the destination directory and renamed into
// place, so a crash mid-write never corrupts the previous checkpoint.
func (c *campaign) saveCheckpoint(done bool) error {
	if c.cfg.CheckpointPath == "" {
		return nil
	}
	sp := obs.SpanCheckpointWrite.Start()
	defer sp.End()
	ck := checkpointFile{
		Version:   checkpointVersion,
		Policy:    c.cfg.Policy.Name(),
		Seed:      c.cfg.Seed,
		InitLen:   c.initLen,
		RNGDraws:  c.src.Draws(),
		CumCost:   c.cumCost,
		CumRegret: c.cumRegret,
		Model:     configModelName(c.cfg),
		Fidelity:  configFidelityLadder(c.cfg),
		Feeds:     c.feeds,
		Result:    c.res,
		Done:      done,
	}
	if r, ok := c.lab.(faults.Resumable); ok {
		st, err := r.LabState()
		if err != nil {
			return fmt.Errorf("online: capturing lab state: %w", err)
		}
		ck.LabState = st
	}
	data, err := json.Marshal(ck)
	if err != nil {
		return fmt.Errorf("online: encoding checkpoint: %w", err)
	}
	if err := engine.WriteFileAtomic(c.cfg.CheckpointPath, data); err != nil {
		var commit *os.LinkError
		if errors.As(err, &commit) {
			return fmt.Errorf("online: committing checkpoint: %w", err)
		}
		return fmt.Errorf("online: writing checkpoint: %w", err)
	}
	obs.CheckpointWrites.Inc()
	return nil
}

// readCheckpoint loads a checkpoint; a missing file returns (nil, nil) so
// the caller starts a fresh campaign.
func readCheckpoint(path string) (*checkpointFile, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("online: reading checkpoint: %w", err)
	}
	if len(data) == 0 {
		return nil, fmt.Errorf("online: checkpoint %s is empty: %w", path, ErrCheckpointTruncated)
	}
	var ck checkpointFile
	if err := json.Unmarshal(data, &ck); err != nil {
		if truncatedJSON(data, err) {
			return nil, fmt.Errorf("online: checkpoint %s ends mid-record (%v): %w", path, err, ErrCheckpointTruncated)
		}
		return nil, fmt.Errorf("online: decoding checkpoint %s (%v): %w", path, err, ErrCheckpointCorrupt)
	}
	if ck.Version != checkpointVersion {
		return nil, fmt.Errorf("online: checkpoint %s has version %d, want %d: %w", path, ck.Version, checkpointVersion, ErrCheckpointCorrupt)
	}
	if ck.Result == nil {
		return nil, fmt.Errorf("online: checkpoint %s carries no result: %w", path, ErrCheckpointCorrupt)
	}
	return &ck, nil
}

// truncatedJSON reports whether a decode failure is consistent with the
// input being cut short rather than garbled: the decoder ran off the end of
// the data ("unexpected end of JSON input" surfaces as a SyntaxError whose
// offset sits at or past the last byte).
func truncatedJSON(data []byte, err error) bool {
	var syn *json.SyntaxError
	if !errors.As(err, &syn) {
		return false
	}
	return syn.Offset >= int64(len(data))
}

// validateCheckpoint rejects checkpoints written under a different campaign
// identity before any state is replayed or returned.
func validateCheckpoint(cfg Config, ck *checkpointFile) error {
	if ck.Policy != cfg.Policy.Name() {
		return fmt.Errorf("online: checkpoint was written by policy %q, resuming with %q", ck.Policy, cfg.Policy.Name())
	}
	if ck.Seed != cfg.Seed {
		return fmt.Errorf("online: checkpoint seed %d does not match config seed %d", ck.Seed, cfg.Seed)
	}
	if ck.InitLen > len(ck.Feeds) {
		return fmt.Errorf("online: corrupt checkpoint: init length %d exceeds %d feed records", ck.InitLen, len(ck.Feeds))
	}
	if got, want := canonicalModelName(ck.Model), canonicalModelName(configModelName(cfg)); got != want {
		return fmt.Errorf("online: checkpoint was written with surrogate model %q, resuming with %q: %w", got, want, ErrCheckpointModelMismatch)
	}
	if !slices.Equal(ck.Fidelity, configFidelityLadder(cfg)) {
		return fmt.Errorf("online: checkpoint was written with fidelity ladder %v, resuming with %v: %w",
			ck.Fidelity, configFidelityLadder(cfg), ErrCheckpointModelMismatch)
	}
	return nil
}

// configModelName reports the configured surrogate family name; "" for the
// default exact GP (and in pre-model checkpoints, which omitted the field).
// A fidelity campaign's implicit default is the co-kriging model, so its
// checkpoints are stamped "multifid" even with a nil Model spec.
func configModelName(cfg Config) string {
	if cfg.Model == nil {
		if cfg.Fidelity != nil {
			return engine.ModelMultiFid
		}
		return ""
	}
	return cfg.Model.Name
}

// configFidelityLadder reports the configured fidelity ladder's MaxLevel
// values; nil for single-fidelity campaigns (and pre-fidelity checkpoints,
// which omitted the field).
func configFidelityLadder(cfg Config) []int {
	if cfg.Fidelity == nil {
		return nil
	}
	return cfg.Fidelity.Levels
}

// canonicalModelName folds the empty name into the explicit default so a
// checkpoint written before the model field existed resumes under an
// explicit {"name": "exact"} spec, and vice versa.
func canonicalModelName(name string) string {
	if name == "" {
		return engine.ModelExact
	}
	return name
}

// resumeCampaign reconstructs the exact mid-campaign state from a
// checkpoint: surrogates by replaying the feed log (the GP hot path is
// bitwise deterministic, so replay lands on the identical model), the
// candidate pool by filtering the grid against executed configurations, the
// policy RNG by skipping the recorded draw count, and the lab's own counters
// via faults.Resumable.
func resumeCampaign(lab Lab, cfg Config, ck *checkpointFile) (*campaign, error) {
	sp := obs.SpanCheckpointRestore.Start()
	defer sp.End()
	c := newCampaign(lab, cfg)
	c.res = ck.Result
	c.res.Reason = engine.StopMaxIterations
	c.feeds = ck.Feeds
	c.initLen = ck.InitLen
	c.cumCost = ck.CumCost
	c.cumRegret = ck.CumRegret

	var err error
	c.gpCost, c.gpMem, err = fitFromFeeds(cfg, c.feeds[:c.initLen])
	if err != nil {
		return nil, fmt.Errorf("online: replaying init fit: %w", err)
	}
	for _, f := range c.feeds[c.initLen:] {
		if err := c.applyFeed(f); err != nil {
			return nil, fmt.Errorf("online: replaying feed log: %w", err)
		}
	}

	if len(ck.LabState) > 0 {
		r, ok := lab.(faults.Resumable)
		if !ok {
			return nil, errors.New("online: checkpoint carries lab state but the lab cannot restore it")
		}
		if err := r.RestoreLabState(ck.LabState); err != nil {
			return nil, fmt.Errorf("online: restoring lab state: %v: %w", err, ErrCheckpointCorrupt)
		}
	}

	c.src = stats.NewCountingSource(stats.SplitSeed(cfg.Seed, 0))
	c.src.Skip(ck.RNGDraws)
	c.rng = rand.New(c.src)

	c.rebuildPool()
	// Freshly built caches rebuild through the flat solve path, which is
	// bitwise identical to the incremental extension an uninterrupted run
	// performed — the resumed trajectory's scores, and hence selections,
	// match exactly.
	c.buildCaches()
	obs.CheckpointRestores.Inc()
	return c, nil
}
