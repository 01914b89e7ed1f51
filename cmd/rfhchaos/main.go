// Command rfhchaos runs seeded chaos scenarios against the live
// cluster runtime: a fault plan derived from each seed injects message
// drops, duplicates, delays, link cuts and node crash/restart cycles
// into a loopback fleet while invariant checkers watch for lost acked
// writes, stale reads, replica-ceiling breaches and failed
// re-convergence. Each run also records the complete operation history
// (every put/get invocation and response, with version stamps and
// binding/relaxed marks) and judges it at quiescence with the
// histcheck checkers: per-key WGL linearizability plus the session
// guarantees (read-your-writes, monotonic reads, monotonic writes).
// Every scenario is fully deterministic: the same seed always produces
// the same faults, the same trajectory and the same verdict, so a
// failing seed printed by a matrix run reproduces exactly.
//
// Examples:
//
//	rfhchaos -seeds 50                 # seeds 1..50, stop on first failure
//	rfhchaos -seed 0x2a -v             # replay one seed with event traces
//	rfhchaos -seeds 200 -keep-going    # full matrix, report all failures
//	rfhchaos -seed 7 -v -dump          # print the full trajectory dump
//	rfhchaos -seeds 20 -durable        # disk-backed fleets: crashes keep
//	                                   # their WALs, restarts replay them
//	rfhchaos -seed 7 -check sessions   # cheap linear scan only
//	rfhchaos -seed 7 -dump-history     # print the recorded op history
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/chaos"
)

func main() {
	var (
		seeds    = flag.Int("seeds", 20, "run scenario seeds 1..N")
		seed     = flag.Uint64("seed", 0, "run exactly this seed instead of a matrix (for replaying failures)")
		verbose  = flag.Bool("v", false, "include per-event fault traces in the trajectory")
		dump     = flag.Bool("dump", false, "print every scenario's trajectory, not just failing ones")
		keep     = flag.Bool("keep-going", false, "run the whole matrix even after a failure")
		nodes    = flag.Int("nodes", 0, "override fleet size")
		faultEp  = flag.Int("fault-epochs", 0, "override fault-window length")
		coolEp   = flag.Int("cool-epochs", 0, "override recovery-window length")
		dropRate = flag.Float64("drop", -1, "override message drop probability")
		durable  = flag.Bool("durable", false, "run each scenario on the durable engine in a fresh temp directory (crashes keep disk state, restarts replay WALs)")
		check    = flag.String("check", "linearizable", "history checkers at quiescence: linearizable (WGL search + session scan), sessions (linear scan only) or off")
		dumpHist = flag.Bool("dump-history", false, "print every scenario's recorded op history (failing scenarios always print theirs)")
	)
	flag.Parse()

	var list []uint64
	if *seed != 0 {
		list = []uint64{*seed}
	} else {
		for s := 1; s <= *seeds; s++ {
			list = append(list, uint64(s))
		}
	}

	failed := 0
	for _, s := range list {
		opts := chaos.DefaultOptions(s)
		opts.Verbose = *verbose
		opts.Check = *check
		if *nodes > 0 {
			opts.Nodes = *nodes
		}
		if *faultEp > 0 {
			opts.FaultEpochs = *faultEp
		}
		if *coolEp > 0 {
			opts.CoolEpochs = *coolEp
		}
		if *dropRate >= 0 {
			opts.DropRate = *dropRate
		}
		if *durable {
			dir, err := os.MkdirTemp("", fmt.Sprintf("rfhchaos-seed%d-", s))
			if err != nil {
				fmt.Fprintf(os.Stderr, "rfhchaos: seed 0x%x: %v\n", s, err)
				os.Exit(2)
			}
			opts.DataDir = dir
		}

		res, err := chaos.Run(opts)
		if opts.DataDir != "" {
			os.RemoveAll(opts.DataDir)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "rfhchaos: seed 0x%x: %v\n", s, err)
			os.Exit(2)
		}
		if res.Passed() {
			fmt.Printf("seed=0x%-4x PASS epochs=%d acked=%d reads=%d rerr=%d %s\n",
				s, res.Epochs, res.Acked, res.ReadOK, res.ReadErrs, res.Faults.String())
			if *dump {
				fmt.Print(res.Trajectory)
			}
			if *dumpHist {
				printHistory(res)
			}
			continue
		}
		failed++
		fmt.Printf("seed=0x%-4x FAIL %d violation(s)\n", s, len(res.Violations))
		for i := range res.Violations {
			fmt.Printf("  %s\n", res.Violations[i].String())
		}
		fmt.Print(res.Trajectory)
		if *dumpHist {
			printHistory(res)
		}
		fmt.Printf("replay: rfhchaos -seed 0x%x -v -dump -dump-history\n", s)
		if !*keep {
			os.Exit(1)
		}
	}
	if failed > 0 {
		fmt.Printf("%d/%d scenarios failed\n", failed, len(list))
		os.Exit(1)
	}
	fmt.Printf("all %d scenarios passed\n", len(list))
}

// printHistory dumps the recorded op history, one line per op in
// histcheck's canonical format — the record the history checkers
// judged, and the input to feed back into them when diagnosing.
func printHistory(res *chaos.Result) {
	fmt.Printf("history ops=%d\n", len(res.History))
	for i := range res.History {
		fmt.Printf("  %s\n", res.History[i].String())
	}
}
