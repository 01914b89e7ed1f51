// Command rfhsim runs one replication-policy simulation over the paper's
// 10-datacenter, 100-server world and prints the per-epoch metric series
// as CSV (or a compact summary with -summary).
//
// Examples:
//
//	rfhsim -policy rfh -workload flash -epochs 400 > rfh_flash.csv
//	rfhsim -trace demand.csv -policy rfh -summary
//	rfhsim -policy random -epochs 250 -summary
//	rfhsim -policy rfh -fail-epoch 290 -fail-servers 30 -epochs 500 -summary
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"

	rfh "repro"
	"repro/internal/core"
	"repro/internal/stats"
)

func main() {
	var (
		policy      = flag.String("policy", "rfh", "replication policy: "+strings.Join(core.PolicyNames(), ", "))
		workload    = flag.String("workload", "uniform", "query setting: uniform, flash, zipf, diurnal or drift")
		epochs      = flag.Int("epochs", 250, "epochs to simulate")
		lambda      = flag.Float64("lambda", 300, "Poisson mean queries per partition per epoch")
		seed        = flag.Uint64("seed", 1, "random seed")
		serving     = flag.String("serving", "path", "serving model: path or nearest")
		zipf        = flag.Float64("zipf", 1.0, "partition-popularity exponent for -workload zipf")
		summary     = flag.Bool("summary", false, "print a summary instead of per-epoch CSV")
		placement   = flag.Bool("placement", false, "print the final replica placement per datacenter")
		failEpoch   = flag.Int("fail-epoch", 0, "epoch at which to fail servers (0 = none)")
		failServers = flag.Int("fail-servers", 0, "number of random servers to fail at -fail-epoch")
		traceFile   = flag.String("trace", "", "CSV demand trace to replay instead of a synthetic workload")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile  = flag.String("memprofile", "", "write a heap profile taken after the run to this file")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rfhsim:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "rfhsim:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	cfg := rfh.DefaultConfig()
	cfg.Policy = *policy
	cfg.Workload = *workload
	cfg.Epochs = *epochs
	cfg.Lambda = *lambda
	cfg.Seed = *seed
	cfg.Serving = *serving
	cfg.ZipfExponent = *zipf

	if *traceFile != "" {
		f, err := os.Open(*traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rfhsim:", err)
			os.Exit(1)
		}
		gen, err := rfh.LoadTraceWorkload(*traceFile, f, 64, 10)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "rfhsim:", err)
			os.Exit(1)
		}
		cfg.CustomWorkload = gen
	}

	var events []rfh.FailureEvent
	if *failEpoch > 0 && *failServers > 0 {
		rng := stats.NewRNG(*seed ^ 0xFA11)
		perm := rng.Perm(rfh.NumServers())
		ev := rfh.FailureEvent{Epoch: *failEpoch}
		for _, s := range perm[:*failServers] {
			ev.Fail = append(ev.Fail, s)
		}
		events = append(events, ev)
	}

	res, err := rfh.RunWithFailures(cfg, events)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rfhsim:", err)
		os.Exit(1)
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rfhsim:", err)
			os.Exit(1)
		}
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "rfhsim:", err)
			os.Exit(1)
		}
		f.Close()
	}

	if *placement {
		printPlacement(res)
		if !*summary {
			return
		}
	}
	if *summary {
		printSummary(res)
		return
	}
	if err := printCSV(res); err != nil {
		fmt.Fprintln(os.Stderr, "rfhsim:", err)
		os.Exit(1)
	}
}

func printPlacement(res *rfh.Result) {
	fmt.Printf("final placement (policy=%s, epoch %d)\n", res.Policy, res.Epochs)
	fmt.Printf("  %-4s %8s %10s %10s\n", "DC", "alive", "replicas", "primaries")
	for _, d := range res.Placement {
		fmt.Printf("  %-4s %8d %10d %10d\n", d.Name, d.AliveServers, d.Replicas, d.Primaries)
	}
}

func printSummary(res *rfh.Result) {
	fmt.Printf("policy=%s epochs=%d\n", res.Policy, res.Epochs)
	rows := []struct{ label, series string }{
		{"replica utilization (final)", rfh.SeriesUtilization},
		{"total replicas (final)", rfh.SeriesTotalReplicas},
		{"avg replicas/partition (final)", rfh.SeriesAvgReplicas},
		{"replication cost (cumulative)", rfh.SeriesReplCost},
		{"migrations (cumulative)", rfh.SeriesMigrTimes},
		{"migration cost (cumulative)", rfh.SeriesMigrCost},
		{"load imbalance (final)", rfh.SeriesLoadImbalance},
		{"lookup path length (final)", rfh.SeriesPathLength},
		{"unserved fraction (final)", rfh.SeriesUnservedFrac},
		{"alive servers (final)", rfh.SeriesAliveServers},
		{"lost partitions (final)", rfh.SeriesLostPartitions},
	}
	for _, r := range rows {
		fmt.Printf("  %-32s %10.4f\n", r.label, res.Final(r.series))
	}
}

func printCSV(res *rfh.Result) error {
	w := csv.NewWriter(os.Stdout)
	names := res.Names()
	header := append([]string{"epoch"}, names...)
	if err := w.Write(header); err != nil {
		return err
	}
	series := make(map[string][]float64, len(names))
	for _, n := range names {
		series[n] = res.Series(n)
	}
	row := make([]string, len(header))
	for e := 0; e < res.Epochs; e++ {
		row[0] = strconv.Itoa(e)
		for i, n := range names {
			row[i+1] = strconv.FormatFloat(series[n][e], 'g', 8, 64)
		}
		if err := w.Write(row); err != nil {
			return err
		}
	}
	w.Flush()
	return w.Error()
}
