package engine

import (
	"fmt"
	"math/rand"

	"alamr/internal/dataset"
)

// Example runs the paper's Algorithm 1 end to end on a small synthetic
// campaign: memory-aware RGMA selects 20 experiments and the trajectory
// records everything the evaluation needs.
func Example() {
	ds := synthDS(120, 42)
	part, err := dataset.Split(ds, 10, 40, rand.New(rand.NewSource(7)))
	if err != nil {
		panic(err)
	}
	tr, err := RunReplay(ds, part, LoopConfig{
		Policy:        RGMA{},
		MaxIterations: 20,
		MemLimitMB:    PaperMemLimitMB(ds),
		Seed:          13,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("policy: %s\n", tr.Policy)
	fmt.Printf("selections: %d (stop: %s)\n", tr.Iterations(), tr.Reason)
	fmt.Printf("error improved: %v\n", tr.CostRMSE[19] < tr.InitCostRMSE)
	fmt.Printf("regret bounded by cost: %v\n", tr.CumRegret[19] <= tr.CumCost[19])
	// Output:
	// policy: RGMA
	// selections: 20 (stop: max-iterations)
	// error improved: true
	// regret bounded by cost: true
}
