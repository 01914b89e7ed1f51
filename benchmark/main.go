// Command benchmark is the repository's end-to-end benchmark: a
// closed-loop load generator against in-process fleets of real nodes,
// a per-layer ledger of isolated micro-runs, and an outside-in trace.
// README.md in this directory explains the design; BENCHMARK.json at
// the repository root names the metrics and their bounds.
//
//	benchmark -workload NAME -seed N -seconds S -trace 0|1   one run, JSON on the last line
//	benchmark                                                every workload, end-to-end metrics
//	benchmark -ledger                                        only the per-layer micro-runs
//	benchmark -repeat 10                                     calibration: two sets of runs, spreads against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
)

func main() {
	workload := flag.String("workload", "", "run one workload (default: all)")
	seed := flag.Uint64("seed", 1, "seed of the generated traffic")
	seconds := flag.Float64("seconds", 16, "measured seconds per workload, split between the closed-loop phases")
	trace := flag.Int("trace", 0, "1: report the per-layer metrics (client, trace, ledger) instead of the end-to-end ones")
	ledgerOnly := flag.Bool("ledger", false, "run only the per-layer micro-runs and print their rows")
	repeat := flag.Int("repeat", 0, "calibrate: run two sets of this many runs per workload, one seed each, as child processes")
	jsonPath := flag.String("json", "", "also write every result to this file as JSON")
	quiet := flag.Bool("quiet", false, "no diagnostics on standard error")
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}

	e := env{dataRoot: ".bench_build", outDir: "benchmark/out", log: os.Stderr}
	if *quiet {
		e.log = io.Discard
	}
	if err := os.MkdirAll(e.dataRoot, 0o755); err != nil {
		fatal(err)
	}
	pinToOneCPU()
	fmt.Fprintf(e.log, "GOMAXPROCS %d, data under %s (%s)\n", runtime.GOMAXPROCS(0), e.dataRoot, fsType(e.dataRoot))

	specs := workloads
	if *workload != "" {
		s, ok := findWorkload(*workload)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		specs = []spec{s}
	}

	switch {
	case *repeat > 0:
		if err := calibrate(os.Stdout, specs, *repeat, *seed, *seconds); err != nil {
			fatal(err)
		}
		return
	case *ledgerOnly:
		rows, err := ledger(e.dataRoot)
		if err != nil {
			fatal(err)
		}
		for _, m := range rows {
			fmt.Printf("%-34s %14.4f %s\n", m.name, m.value, unitOf(m.name))
		}
		return
	}

	var results []result
	bad := false
	for _, s := range specs {
		measure, want := measureEndToEnd, endToEnd
		if *trace == 1 {
			measure, want = measurePerLayer, perLayer
		}
		res, err := measure(s, *seed, *seconds, e)
		if err != nil {
			fatal(err)
		}
		if err := res.matches(want); err != nil {
			fatal(err)
		}
		printResult(os.Stdout, res)
		results = append(results, res)
		if res.failed > 0 {
			fmt.Fprintf(os.Stderr, "%s: %d of %d operations failed, first: %v\n", res.workload, res.failed, res.attempted, res.firstErr)
			bad = true
		}
	}
	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, results); err != nil {
			fatal(err)
		}
	}
	if bad {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// matches checks that res holds exactly the declared metrics, in
// order.
func (res *result) matches(defs []metricDef) error {
	if len(res.metrics) != len(defs) {
		return fmt.Errorf("%s: %d metrics measured, %d declared", res.workload, len(res.metrics), len(defs))
	}
	for i, d := range defs {
		if m := res.metrics[i]; m.name != d.name {
			return fmt.Errorf("%s: metric %d is %s, declared %s", res.workload, i, m.name, d.name)
		}
	}
	return nil
}

// jsonResult is the object the driver reads from the last line.
type jsonResult struct {
	Workload  string                `json:"workload,omitempty"`
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (res *result) json(withName bool) jsonResult {
	out := jsonResult{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]jsonMetric{}}
	if withName {
		out.Workload = res.workload
	}
	for _, m := range res.metrics {
		out.Metrics[m.name] = jsonMetric{m.value, unitOf(m.name)}
	}
	return out
}

// printResult writes one row per metric and, as the last line, the
// JSON object with exactly the keys correct, attempted, failed and
// metrics.
func printResult(w io.Writer, res result) {
	for _, m := range res.metrics {
		fmt.Fprintf(w, "%-14s %-34s %14.4f %s\n", res.workload, m.name, m.value, unitOf(m.name))
	}
	fmt.Fprintf(w, "%-14s attempted %d failed %d\n", res.workload, res.attempted, res.failed)
	buf, err := json.Marshal(res.json(false))
	if err != nil {
		fatal(err)
	}
	fmt.Fprintln(w, string(buf))
}

func writeJSON(path string, results []result) error {
	out := make([]jsonResult, len(results))
	for i := range results {
		out[i] = results[i].json(true)
	}
	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
