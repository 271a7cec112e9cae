// Quickstart: generate a small simulated AMR performance campaign, run one
// memory-aware active-learning trajectory on it, and print what the learner
// selected and how its models improved.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math/rand"

	"alamr/internal/dataset"
	"alamr/internal/engine"
)

func main() {
	log.SetFlags(0)

	// 1. Generate a reduced campaign (the full paper-scale campaign is 600
	//    jobs; amr-gen builds that one). This runs real shock-bubble
	//    hydrodynamics behind the scenes, so expect a few seconds.
	fmt.Println("generating a 150-job campaign (reduced scale)...")
	ds, err := dataset.Generate(dataset.GenConfig{
		Seed:      7,
		NumJobs:   150,
		NumUnique: 120,
		RefNx:     64,
		RefTEnd:   0.15,
		RefSnaps:  6,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset: %d jobs, cost %.3g..%.3g node-hours\n",
		ds.Len(), minOf(ds.Cost(nil)), maxOf(ds.Cost(nil)))

	// 2. Partition: 30 test, 10 initial, the rest form the Active pool the
	//    learner selects from.
	part, err := dataset.Split(ds, 10, 30, rand.New(rand.NewSource(1)))
	if err != nil {
		log.Fatal(err)
	}

	// 3. Run cost- and memory-aware AL (the paper's RGMA policy) with the
	//    paper's memory-limit rule.
	limit := engine.PaperMemLimitMB(ds)
	fmt.Printf("memory limit: %.3g MB\n", limit)
	tr, err := engine.RunReplay(ds, part, engine.LoopConfig{
		Policy:        engine.RGMA{},
		MaxIterations: 60,
		MemLimitMB:    limit,
		Seed:          1,
	})
	if err != nil {
		log.Fatal(err)
	}

	// 4. Inspect the outcome.
	n := tr.Iterations()
	fmt.Printf("\nran %d AL iterations (stop: %s)\n", n, tr.Reason)
	fmt.Printf("cost-model RMSE: %.4g -> %.4g node-hours\n", tr.InitCostRMSE, tr.CostRMSE[n-1])
	fmt.Printf("mem-model  RMSE: %.4g -> %.4g MB\n", tr.InitMemRMSE, tr.MemRMSE[n-1])
	fmt.Printf("total cost of selected experiments: %.4g node-hours\n", tr.CumCost[n-1])
	violations := 0
	for _, v := range tr.Violation {
		if v {
			violations++
		}
	}
	fmt.Printf("memory-limit violations: %d (regret %.4g node-hours)\n", violations, tr.CumRegret[n-1])

	fmt.Println("\nfirst selections (cheap, memory-safe jobs first is the expected pattern):")
	for i := 0; i < 5 && i < n; i++ {
		j := ds.Jobs[tr.Selected[i]]
		fmt.Printf("  #%d: p=%-2d mx=%-2d maxlevel=%d r0=%.1f rhoin=%.2f -> %.4g nh, %.3g MB\n",
			i+1, j.P, j.Mx, j.MaxLevel, j.R0, j.RhoIn, j.CostNH, j.MemMB)
	}
}

func minOf(x []float64) float64 {
	m := x[0]
	for _, v := range x {
		if v < m {
			m = v
		}
	}
	return m
}

func maxOf(x []float64) float64 {
	m := x[0]
	for _, v := range x {
		if v > m {
			m = v
		}
	}
	return m
}
