package engine

import (
	"fmt"
	"strings"

	"alamr/internal/dataset"
	"alamr/internal/gp"
	"alamr/internal/kernel"
)

// Surrogate model names built into the registry.
const (
	ModelExact    = "exact"
	ModelSparse   = "sparse"
	ModelTreed    = "treed"
	ModelMultiFid = "multifid"
)

// ModelSpec names a registered surrogate family plus its capacity knobs.
// The zero spec (and a nil *ModelSpec on CampaignSpec) means the exact GP —
// the default every pre-existing campaign file and golden runs under.
type ModelSpec struct {
	Name string `json:"name"`
	// Inducing is the sparse model's inducing-point budget k (default 64).
	// Scoring costs O(k²) per candidate direct or O(k) cached, so k bounds
	// the per-iteration cost independently of the training-set size n.
	Inducing int `json:"inducing,omitempty"`
	// LeafSize is the treed model's leaf capacity (default 64, minimum 8).
	LeafSize int `json:"leaf_size,omitempty"`
	// Rebalance is the treed model's re-split trigger factor: a leaf splits
	// once it exceeds rebalance×leaf_size rows (default 2, minimum 1).
	Rebalance int `json:"rebalance,omitempty"`
}

// ModelDeps carries the runtime inputs a model constructor needs beyond its
// spec: the covariance prototype, the per-surrogate GP configuration, and
// (for the co-kriging family) the campaign's fidelity ladder.
type ModelDeps struct {
	Kernel   kernel.Kernel
	GP       gp.Config
	Fidelity *FidelitySpec
}

// modelReg is the closed surrogate set: every family here has a
// PredictInto path and a gp.NewPoolCache cache, which
// TestEveryRegistryEntryConstructible pins.
var modelReg = map[string]func(ModelSpec, ModelDeps) (gp.Model, error){
	ModelExact: func(_ ModelSpec, d ModelDeps) (gp.Model, error) {
		return gp.New(d.Kernel, d.GP), nil
	},
	ModelSparse: func(s ModelSpec, d ModelDeps) (gp.Model, error) {
		k := s.Inducing
		if k <= 0 {
			k = 64
		}
		return gp.NewSparse(d.Kernel, d.GP, k), nil
	},
	ModelTreed: func(s ModelSpec, d ModelDeps) (gp.Model, error) {
		leaf := s.LeafSize
		if leaf <= 0 {
			leaf = 64
		}
		t := gp.NewTreed(d.Kernel, d.GP, leaf)
		if s.Rebalance > 0 {
			t.SetRebalance(s.Rebalance)
		}
		return t, nil
	},
	ModelMultiFid: func(_ ModelSpec, d ModelDeps) (gp.Model, error) {
		if d.Fidelity == nil {
			return nil, fmt.Errorf("engine: model %q needs a fidelity ladder (spec %q section)", ModelMultiFid, "fidelity")
		}
		return gp.NewMultiFid(d.Kernel, d.GP, gp.MultiFidConfig{
			Dim:    dataset.FidelityFeature,
			Ladder: d.Fidelity.ScaledLadder(),
		})
	},
}

// ModelNames lists the registered surrogate names, sorted.
func ModelNames() []string { return sortedKeys(modelReg) }

// BuildModel constructs the surrogate a spec names. An empty name means
// ModelExact. Unknown names report the registered alternatives.
func BuildModel(s ModelSpec, deps ModelDeps) (gp.Model, error) {
	name := s.Name
	if name == "" {
		name = ModelExact
	}
	build, ok := modelReg[normName(name)]
	if !ok {
		return nil, fmt.Errorf("engine: unknown model %q (registered: %s)", s.Name, strings.Join(ModelNames(), ", "))
	}
	return build(s, deps)
}

// NewSurrogate builds one unfitted campaign surrogate: the family spec
// names when set, else the co-kriging multifid model when deps carries a
// fidelity ladder (a plain GP cannot tell the ladder's rungs apart), else
// the exact GP. Replay (LoopConfig) and online campaigns both build here.
func NewSurrogate(spec *ModelSpec, deps ModelDeps) (gp.Model, error) {
	s := ModelSpec{Name: ModelExact}
	switch {
	case spec != nil:
		s = *spec
	case deps.Fidelity != nil:
		s.Name = ModelMultiFid
	}
	return BuildModel(s, deps)
}

// validateModelSpec checks a spec's structure without constructing anything
// heavyweight (Validate must stay cheap and side-effect free).
func validateModelSpec(s *ModelSpec) error {
	_, ok := modelReg[normName(s.Name)]
	if s.Name != "" && !ok {
		return fmt.Errorf("engine: unknown model %q (registered: %s)", s.Name, strings.Join(ModelNames(), ", "))
	}
	if s.Inducing < 0 {
		return fmt.Errorf("engine: model inducing must be >= 0, got %d", s.Inducing)
	}
	if s.LeafSize < 0 {
		return fmt.Errorf("engine: model leaf_size must be >= 0, got %d", s.LeafSize)
	}
	if s.Rebalance < 0 {
		return fmt.Errorf("engine: model rebalance must be >= 0, got %d", s.Rebalance)
	}
	return nil
}
