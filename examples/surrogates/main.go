// Surrogates: the three surrogate families side by side — the exact GP the
// paper uses, the treed local-model GP of its future work, and the sparse
// subset-of-regressors GP of its related work — fitted to the same AMR cost
// data, with accuracy, fit time, and model persistence demonstrated.
//
//	go run ./examples/surrogates
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"
	"os"
	"time"

	"alamr/internal/dataset"
	"alamr/internal/gp"
	"alamr/internal/kernel"
)

func main() {
	log.SetFlags(0)

	fmt.Println("generating a 300-job campaign...")
	ds, err := dataset.Generate(dataset.GenConfig{
		Seed: 31, NumJobs: 300, NumUnique: 250, RefNx: 64, RefTEnd: 0.15, RefSnaps: 6,
	})
	if err != nil {
		log.Fatal(err)
	}
	perm := rand.New(rand.NewSource(7)).Perm(ds.Len())
	train, test := perm[:220], perm[220:]
	xTrain, yTrain := ds.Features(train), ds.LogCost(train)
	xTest, costTest := ds.Features(test), ds.Cost(test)

	models := []struct {
		name  string
		model gp.Model
	}{
		{"exact GP", gp.New(kernel.NewRBF(0.5, 1), gp.Config{Noise: 0.1, NormalizeY: true, Seed: 1})},
		{"treed GP (leaf 64)", gp.NewTreed(kernel.NewRBF(0.5, 1), gp.Config{Noise: 0.1, NormalizeY: true, Seed: 1}, 64)},
		{"sparse GP (m=48)", gp.NewSparse(kernel.NewRBF(0.5, 1), gp.Config{Noise: 0.1, NormalizeY: true, Seed: 1}, 48)},
	}
	for _, m := range models {
		t0 := time.Now()
		if err := m.model.Fit(xTrain, yTrain); err != nil {
			log.Fatal(err)
		}
		fitTime := time.Since(t0)
		mu := m.model.PredictMean(xTest)
		var mse float64
		for i, v := range mu {
			d := math.Pow(10, v) - costTest[i]
			mse += d * d
		}
		fmt.Printf("%-20s fit %8v   test RMSE %.4f node-hours\n",
			m.name, fitTime.Round(time.Millisecond), math.Sqrt(mse/float64(len(mu))))
	}

	// Persistence: save the exact GP, reload it, verify predictions agree.
	exact := models[0].model.(*gp.GP)
	path := "cost_model.json"
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := exact.Save(f); err != nil {
		log.Fatal(err)
	}
	f.Close()
	defer os.Remove(path)
	f2, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	back, err := gp.Load(f2)
	f2.Close()
	if err != nil {
		log.Fatal(err)
	}
	m1 := exact.PredictMean(xTest)
	m2 := back.PredictMean(xTest)
	var maxDiff float64
	for i := range m1 {
		maxDiff = math.Max(maxDiff, math.Abs(m1[i]-m2[i]))
	}
	fmt.Printf("\nsaved %s and reloaded it: max prediction difference %.2g\n", path, maxDiff)
}
