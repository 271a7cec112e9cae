// Command campaignbench times whole active-learning campaigns run from the
// canonical specs in examples/specs, the unit of performance of this
// repository. It runs one workload per invocation:
//
//	replay-rgma  replay-rgma.json campaigns, one after another, in process
//	online-sim   online-sim.json campaigns, each in a fresh child process
//	serve-mix    bursts of every locally runnable canonical spec, submitted
//	             over HTTP to an in-process al-serve daemon
//
// Usage, from the root of the repository (see run.sh, which builds it):
//
//	campaignbench --workload replay-rgma --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// traced and untraced campaigns in pairs and prints the per-layer metrics.
// Every campaign's result is checked against oracle.json and structurally;
// the last line of standard output is one JSON object holding the verdict
// and the metrics. See README.md for what each metric means.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Inputs and scratch space, relative to the repository root the benchmark
// runs from.
const (
	specDir     = "examples/specs"
	datasetPath = "dataset.csv"
	oraclePath  = "campaignbench/oracle.json"
	workRoot    = ".bench_build/work"
)

const (
	// seedPool is how many distinct campaign seeds a workload draws from.
	// oracle.json records the result digest of every canonical spec under
	// each of them, so every campaign a run starts is checked bit for bit.
	seedPool = 32
	// setupReps is how many times a run repeats its set-up; setup_s is the
	// median.
	setupReps = 25
	// campaignTimeout fails a campaign that has not finished by then.
	campaignTimeout = 90 * time.Second
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(*bench) (*outcome, error){
	"replay-rgma": runReplayWorkload,
	"online-sim":  runOnlineWorkload,
	"serve-mix":   runServeWorkload,
}

// bench is the state one invocation shares across its campaigns.
type bench struct {
	seed    int64
	seconds time.Duration
	trace   bool
	oracle  oracle
	// work is this run's scratch directory, removed on exit.
	work string
	// exe is this binary, re-executed for online-sim's child campaigns.
	exe string
}

// campaignSeed is the seed of the i-th campaign a run with workload seed w
// starts: consecutive entries of the seed pool from an offset w picks.
func campaignSeed(w int64, i int) int64 {
	x := uint64(w) + 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	x ^= x >> 31
	return 1 + int64((int(x%seedPool)+i)%seedPool)
}

// outcome is what a workload measured: campaign counts plus metric values
// by name (end-to-end names untraced, per-layer names traced).
type outcome struct {
	attempted, failed int
	values            map[string]float64
	// withheld names per-layer metrics measured wrongly: they are left
	// out of the result rather than printed.
	withheld map[string]bool
	// notes are human-readable lines printed above the JSON result.
	notes []string
}

func newOutcome() *outcome {
	return &outcome{values: map[string]float64{}, withheld: map[string]bool{}}
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// fail records a failed campaign and says why on standard error.
func (o *outcome) fail(what string, err error) {
	o.failed++
	fmt.Fprintf(os.Stderr, "campaignbench: FAILED %s: %v\n", what, err)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		os.Exit(childMain(os.Args[2:]))
	}
	var err error
	if len(os.Args) > 1 && os.Args[1] == "record-oracle" {
		err = recordOracle()
	} else {
		err = run(os.Args[1:], os.Stdout)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "campaignbench: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("campaignbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed; picks the campaign seeds")
	seconds := fs.Int("seconds", 30, "how long to keep starting campaigns")
	trace := fs.Int("trace", 0, "1 runs the traced pairs and prints per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	runWorkload, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (known: %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be at least 1 and --trace 0 or 1")
	}
	or, err := loadOracle(oraclePath)
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(workRoot, *name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	abs, err := filepath.Abs(work)
	if err != nil {
		return err
	}

	b := &bench{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		oracle:  or,
		work:    abs,
		exe:     exe,
	}
	out, err := runWorkload(b)
	if err != nil {
		return err
	}
	defs := endToEnd
	if b.trace {
		defs = perLayer
	}
	rep := report{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		if out.withheld[d.Name] {
			continue
		}
		v, ok := out.values[d.Name]
		if !ok && !b.trace {
			return fmt.Errorf("workload %s measured no %s", *name, d.Name)
		}
		rep.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for _, n := range out.notes {
		fmt.Fprintln(stdout, "#", n)
	}
	failedFrac := 0.0
	if out.attempted > 0 {
		failedFrac = float64(out.failed) / float64(out.attempted)
	}
	fmt.Fprintf(stdout, "# %-34s %14.6g %s\n", "failed_frac", failedFrac, "ratio")
	for _, d := range defs {
		if _, ok := out.values[d.Name]; ok {
			fmt.Fprintf(stdout, "# %-34s %14.6g %s\n", d.Name, out.values[d.Name], d.Unit)
		}
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(stdout, string(line))
	return err
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
