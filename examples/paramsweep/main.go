// Paramsweep: use the cost surrogate trained by active learning to answer
// the question the paper's introduction motivates — "which configurations
// can I afford?" — without running them.
//
// The example trains a cost model with the cost-efficient RandGoodness
// policy, then sweeps the full 1920-combination grid through the surrogate
// and prints (a) the predicted-cheapest configurations at the highest
// resolution and (b) everything predicted to fit a node-hour budget.
//
//	go run ./examples/paramsweep
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"
	"sort"

	"alamr/internal/dataset"
	"alamr/internal/gp"
	"alamr/internal/kernel"
)

// prediction pairs a grid combination with its surrogate prediction.
type prediction struct {
	combo    dataset.Combo
	costNH   float64
	sigmaLog float64
}

func main() {
	log.SetFlags(0)

	fmt.Println("generating a 200-job campaign...")
	ds, err := dataset.Generate(dataset.GenConfig{
		Seed: 11, NumJobs: 200, NumUnique: 170, RefNx: 64, RefTEnd: 0.15, RefSnaps: 6,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Train a cost model on a random 140-job subset (playing the role of
	// the measurements AL would have selected).
	perm := rand.New(rand.NewSource(3)).Perm(ds.Len())
	train := perm[:140]
	g := gp.New(kernel.NewRBF(0.5, 1), gp.Config{Noise: 0.1, NormalizeY: true, Seed: 5})
	if err := g.Fit(ds.Features(train), ds.LogCost(train)); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cost model trained on %d jobs (LML %.1f)\n\n", len(train), g.LogMarginalLikelihood())

	// Sweep the full grid through the surrogate.
	combos := dataset.AllCombos()
	preds := make([]prediction, 0, len(combos))
	for _, c := range combos {
		f := dataset.ScaleFeatures(dataset.Job{P: c.P, Mx: c.Mx, MaxLevel: c.MaxLevel, R0: c.R0, RhoIn: c.RhoIn})
		mu, sigma := g.PredictOne(f[:])
		preds = append(preds, prediction{combo: c, costNH: math.Pow(10, mu), sigmaLog: sigma})
	}

	// (a) Cheapest predicted configurations at the deepest refinement.
	deep := preds[:0:0]
	for _, p := range preds {
		if p.combo.MaxLevel == 6 && p.combo.Mx == 32 {
			deep = append(deep, p)
		}
	}
	sort.Slice(deep, func(i, j int) bool { return deep[i].costNH < deep[j].costNH })
	fmt.Println("cheapest predicted maxlevel=6, mx=32 configurations:")
	for i := 0; i < 5 && i < len(deep); i++ {
		c := deep[i].combo
		fmt.Printf("  p=%-2d r0=%.1f rhoin=%.2f  -> %.3g node-hours (log10 σ=%.2f)\n",
			c.P, c.R0, c.RhoIn, deep[i].costNH, deep[i].sigmaLog)
	}

	// (b) Budget query: everything under 0.05 node-hours at maxlevel >= 5.
	const budget = 0.05
	count := 0
	for _, p := range preds {
		if p.combo.MaxLevel >= 5 && p.costNH <= budget {
			count++
		}
	}
	fmt.Printf("\n%d of %d maxlevel>=5 configurations predicted to fit a %.2f node-hour budget\n",
		count, countLevel(preds, 5), budget)

	// Sanity: compare surrogate vs truth on the held-out jobs.
	test := perm[140:]
	xTest := ds.Features(test)
	truth := ds.Cost(test)
	mu := g.PredictMean(xTest)
	var rel float64
	for i := range mu {
		rel += math.Abs(math.Pow(10, mu[i])-truth[i]) / truth[i]
	}
	fmt.Printf("mean relative error on %d held-out jobs: %.1f%%\n", len(test), 100*rel/float64(len(test)))
}

func countLevel(preds []prediction, minLevel int) int {
	n := 0
	for _, p := range preds {
		if p.combo.MaxLevel >= minLevel {
			n++
		}
	}
	return n
}
