package engine

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"alamr/internal/dataset"
	"alamr/internal/kernel"
)

// The registries map spec names to constructors so campaigns are fully
// describable as data (CampaignSpec) and commands shrink to flag→spec
// translation. Names are case-insensitive. The policy, kernel, strategy and
// model registries are fixed package-level tables, read without a lock.
// The lab registry stays open and guarded by regMu: internal/online
// contributes the "sim" lab and internal/remotelab the "remote" lab.

var (
	regMu  sync.RWMutex
	labReg = map[string]func(LabSpec, LabDeps) (Lab, error){
		"replay": func(_ LabSpec, deps LabDeps) (Lab, error) {
			if deps.Dataset == nil {
				return nil, errors.New("engine: the replay lab needs LabDeps.Dataset")
			}
			return NewReplayLab(deps.Dataset), nil
		},
	}
)

var policyReg = map[string]func(PolicySpec) (Policy, error){
	"randuniform":         simplePolicy(RandUniform{}),
	"uniform":             simplePolicy(RandUniform{}),
	"maxsigma":            simplePolicy(MaxSigma{}),
	"minpred":             simplePolicy(MinPred{}),
	"randgoodness":        func(s PolicySpec) (Policy, error) { return RandGoodness{Base: s.Base}, nil },
	"goodness":            func(s PolicySpec) (Policy, error) { return RandGoodness{Base: s.Base}, nil },
	"rgma":                func(s PolicySpec) (Policy, error) { return RGMA{Base: s.Base}, nil },
	"expectedimprovement": func(s PolicySpec) (Policy, error) { return ExpectedImprovement{Xi: s.Xi}, nil },
	"ei":                  func(s PolicySpec) (Policy, error) { return ExpectedImprovement{Xi: s.Xi}, nil },
	"costperinfo":         simplePolicy(CostPerInfo{}),
	"cpi":                 simplePolicy(CostPerInfo{}),
}

func simplePolicy(p Policy) func(PolicySpec) (Policy, error) {
	return func(PolicySpec) (Policy, error) { return p, nil }
}

var kernelReg = map[string]func(KernelSpec) (kernel.Kernel, error){
	"rbf": func(s KernelSpec) (kernel.Kernel, error) {
		ls, amp := s.LengthScale, s.Amplitude
		if ls <= 0 {
			ls = 0.5
		}
		if amp <= 0 {
			amp = 1
		}
		return kernel.NewRBF(ls, amp), nil
	},
	"ard-rbf": func(s KernelSpec) (kernel.Kernel, error) {
		if len(s.LengthScales) == 0 {
			return nil, errors.New("engine: kernel ard-rbf needs length_scales")
		}
		amp := s.Amplitude
		if amp <= 0 {
			amp = 1
		}
		return kernel.NewARDRBF(s.LengthScales, amp), nil
	},
	"matern32": maternKernel(1.5),
	"matern52": maternKernel(2.5),
}

func maternKernel(nu float64) func(KernelSpec) (kernel.Kernel, error) {
	return func(s KernelSpec) (kernel.Kernel, error) {
		ls, amp := s.LengthScale, s.Amplitude
		if ls <= 0 {
			ls = 0.5
		}
		if amp <= 0 {
			amp = 1
		}
		return kernel.NewMatern(nu, ls, amp), nil
	}
}

var strategyReg = map[string]BatchStrategy{
	"independent":   BatchIndependent,
	"constant-liar": BatchConstantLiar,
	"constant_liar": BatchConstantLiar,
}

// LabDeps carries the runtime dependencies a lab constructor may need
// beyond its spec — notably the offline dataset for the replay lab.
type LabDeps struct {
	Dataset *dataset.Dataset
}

func normName(name string) string { return strings.ToLower(strings.TrimSpace(name)) }

// RegisterLab adds (or replaces) a lab constructor under name.
func RegisterLab(name string, build func(LabSpec, LabDeps) (Lab, error)) {
	regMu.Lock()
	defer regMu.Unlock()
	labReg[normName(name)] = build
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// PolicyNames lists the registered policy names, sorted.
func PolicyNames() []string { return sortedKeys(policyReg) }

// KernelNames lists the registered kernel names, sorted.
func KernelNames() []string { return sortedKeys(kernelReg) }

// StrategyNames lists the registered batch-strategy names, sorted.
func StrategyNames() []string { return sortedKeys(strategyReg) }

// LabNames lists the registered lab names, sorted.
func LabNames() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	return sortedKeys(labReg)
}

// BuildPolicy constructs the policy a spec names. Unknown names report the
// registered alternatives.
func BuildPolicy(s PolicySpec) (Policy, error) {
	build, ok := policyReg[normName(s.Name)]
	if !ok {
		return nil, fmt.Errorf("engine: unknown policy %q (registered: %s)", s.Name, strings.Join(PolicyNames(), ", "))
	}
	return build(s)
}

// BuildKernel constructs the kernel a spec names.
func BuildKernel(s KernelSpec) (kernel.Kernel, error) {
	build, ok := kernelReg[normName(s.Name)]
	if !ok {
		return nil, fmt.Errorf("engine: unknown kernel %q (registered: %s)", s.Name, strings.Join(KernelNames(), ", "))
	}
	return build(s)
}

// BuildStrategy resolves a batch-strategy name.
func BuildStrategy(name string) (BatchStrategy, error) {
	s, ok := strategyReg[normName(name)]
	if !ok {
		return 0, fmt.Errorf("engine: unknown batch strategy %q (registered: %s)", name, strings.Join(StrategyNames(), ", "))
	}
	return s, nil
}

// LabRegistered reports whether a lab name resolves in the registry without
// constructing the lab (construction can have side effects — the "remote"
// lab binds a listener). Unknown names report the registered alternatives,
// with the same message BuildLab would produce.
func LabRegistered(name string) error {
	regMu.RLock()
	_, ok := labReg[normName(name)]
	regMu.RUnlock()
	if !ok {
		return fmt.Errorf("engine: unknown lab %q (registered: %s)", name, strings.Join(LabNames(), ", "))
	}
	return nil
}

// BuildLab constructs the lab a spec names. The "sim" lab registers from
// internal/online; "replay" is built in and requires deps.Dataset.
func BuildLab(s LabSpec, deps LabDeps) (Lab, error) {
	regMu.RLock()
	build, ok := labReg[normName(s.Name)]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("engine: unknown lab %q (registered: %s)", s.Name, strings.Join(LabNames(), ", "))
	}
	return build(s, deps)
}
