// Command rfhbench measures the live runtime's repair bandwidth and
// gives profilers a loaded cluster to sample.
//
// The repair suite (default) prices delta replication end to end:
// bytes on the wire for a full snapshot against planned sessions — a
// re-migration at three divergence levels, an anti-entropy round
// (both of its sessions) at two, onto a revoked copy, and from a stale
// rejoiner, all real transfer sessions over a tapped loopback fleet —
// the source of BENCH_repair.json. The stress suite is a pprof-friendly
// hammer: a 3-node TCP fleet under concurrent put/get load with epochs
// ticking underneath, meant to be run with -cpuprofile. The live data
// plane's per-layer costs (codec, TCP hop, AE tree update) are the
// benchmark/ ledger's rows; the simulator's epoch loop is timed by
// `go test -bench BenchmarkStep ./internal/sim`.
//
//	rfhbench -o BENCH_repair.json
//	rfhbench -date 2026-08-01 -o BENCH_repair.json   # pinned stamp for reproducible diffs
//	rfhbench -suite stress -epochs 100 -cpuprofile cpu.pprof
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"repro/internal/node"
	"repro/internal/transport"
)

// benchFleet is the stress suite's 3-node TCP cluster.
type benchFleet struct {
	nodes []*node.Node
}

func buildBenchFleet() (*benchFleet, error) {
	const n = 3
	opts := transport.TCPOptions{
		DialTimeout: 2 * time.Second, IOTimeout: 5 * time.Second,
		Retries: 1, RetryBackoff: 5 * time.Millisecond,
	}
	peers := make([]node.Peer, n)
	trs := make([]transport.Transport, n)
	for i := range peers {
		tr, err := transport.ListenTCP("127.0.0.1:0", nil, opts)
		if err != nil {
			return nil, err
		}
		peers[i] = node.Peer{ID: i, Addr: tr.Addr()}
		trs[i] = tr
	}
	f := &benchFleet{}
	for i := 0; i < n; i++ {
		cfg := node.DefaultConfig(i, append([]node.Peer(nil), peers...))
		cfg.Partitions = 16
		cfg.Seed = 7
		nd, err := node.New(cfg, trs[i])
		if err != nil {
			f.Close()
			return nil, err
		}
		f.nodes = append(f.nodes, nd)
	}
	// A few lockstep epochs settle the initial replica placement so the
	// measured traffic runs against a converged cluster.
	for e := 0; e < 3; e++ {
		if err := f.tick(); err != nil {
			f.Close()
			return nil, err
		}
	}
	return f, nil
}

func (f *benchFleet) tick() error {
	for i, nd := range f.nodes {
		if err := nd.FlushEpoch(); err != nil {
			return fmt.Errorf("flush node %d: %w", i, err)
		}
	}
	for i, nd := range f.nodes {
		if err := nd.RunEpoch(); err != nil {
			return fmt.Errorf("run node %d: %w", i, err)
		}
	}
	return nil
}

func (f *benchFleet) Close() {
	for _, nd := range f.nodes {
		nd.Close()
	}
}

type repairReport struct {
	Date       string            `json:"date"`
	GoVersion  string            `json:"go_version"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Results    []node.RepairCost `json:"results"`
}

// runRepairSuite measures replication bytes against divergence — the
// delta-replication claim in one table, every row real sessions on a
// tapped loopback wire against a full snapshot of the same 10k-key
// partition. Three re-migration rows (10%, 1% and 0.1% divergence),
// two anti-entropy rows (a holder one and 100 keys stale; both
// sessions of the round, offer rounds included), and two rows where
// the target's copy is not the source's past: a re-replication onto a
// revoked copy missing 100 overwritten keys, and a re-injection from a
// source 100 keys staler than the holder. The bandwidth ratios are
// key-count arithmetic, not timing, so the rows are stable enough to
// commit.
func runRepairSuite() ([]node.RepairCost, error) {
	const keys = 10000
	var results []node.RepairCost
	for _, divergent := range []int{1000, 100, 10} {
		res, err := node.MeasureTransferRepair(keys, divergent)
		if err != nil {
			return nil, err
		}
		results = append(results, res)
	}
	results = append(results, node.MeasureAERepair(keys, 1))
	results = append(results, node.MeasureAERepair(keys, 100))
	for _, measure := range []func(int, int) (node.RepairCost, error){node.MeasureRevokedRepair, node.MeasureReinjectRepair} {
		res, err := measure(keys, 100)
		if err != nil {
			return nil, err
		}
		results = append(results, res)
	}
	return results, nil
}

// runStress hammers a 3-node TCP fleet with concurrent put/get traffic
// while lockstep epochs tick underneath — the same shape as the node
// package's concurrent stress test, scaled up and left unasserted so
// cpu/heap profiles capture a realistic steady state. Transient errors
// during epoch actions are counted, not fatal.
func runStress(epochs int) error {
	f, err := buildBenchFleet()
	if err != nil {
		return err
	}
	defer f.Close()

	stop := make(chan struct{})
	var tickWG sync.WaitGroup
	tickWG.Add(1)
	go func() {
		defer tickWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := f.tick(); err != nil {
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	const workers = 16
	rounds := epochs * 25
	val := make([]byte, 64)
	var transient int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			entry := f.nodes[g%len(f.nodes)]
			errs := int64(0)
			for r := 0; r < rounds; r++ {
				key := fmt.Sprintf("stress-g%d-k%d", g, r%10)
				if err := entry.Put(key, val); err != nil {
					errs++
				}
				if _, _, err := entry.Get(key); err != nil {
					errs++
				}
			}
			mu.Lock()
			transient += errs
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(stop)
	tickWG.Wait()
	total := int64(workers) * int64(rounds) * 2
	fmt.Fprintf(os.Stderr, "stress: %d ops in %v  %9.0f ops/sec  %d transient errors\n",
		total, elapsed.Round(time.Millisecond), float64(total)/elapsed.Seconds(), transient)
	return nil
}

func main() {
	var (
		out        = flag.String("o", "", "write JSON here instead of stdout")
		suite      = flag.String("suite", "repair", "benchmark suite: repair or stress")
		epochs     = flag.Int("epochs", 300, "stress suite length: ×25 put/get rounds per worker")
		date       = flag.String("date", "", "date stamp (YYYY-MM-DD) embedded in the snapshot; default today (UTC)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile here")
		memprofile = flag.String("memprofile", "", "write a heap profile here at exit")
	)
	flag.Parse()
	if *epochs < 1 {
		fmt.Fprintln(os.Stderr, "rfhbench: -epochs must be >= 1")
		os.Exit(2)
	}
	if *date == "" {
		*date = time.Now().UTC().Format("2006-01-02")
	} else if _, err := time.Parse("2006-01-02", *date); err != nil {
		fmt.Fprintln(os.Stderr, "rfhbench: -date must be YYYY-MM-DD")
		os.Exit(2)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rfhbench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "rfhbench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "rfhbench:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "rfhbench:", err)
			}
		}()
	}

	switch *suite {
	case "repair":
		results, err := runRepairSuite()
		if err != nil {
			fmt.Fprintln(os.Stderr, "rfhbench:", err)
			os.Exit(1)
		}
		for _, r := range results {
			fmt.Fprintf(os.Stderr, "%-28s %9d baseline B  %8d delta B  %6.1fx fewer\n",
				r.Name, r.BaselineBytes, r.DeltaBytes, r.Ratio)
		}
		data, err := json.MarshalIndent(repairReport{
			Date:       *date,
			GoVersion:  runtime.Version(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			Results:    results,
		}, "", "  ")
		if err == nil {
			data = append(data, '\n')
			if *out == "" {
				_, err = os.Stdout.Write(data)
			} else {
				err = os.WriteFile(*out, data, 0o644)
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "rfhbench:", err)
			os.Exit(1)
		}
	case "stress":
		if err := runStress(*epochs); err != nil {
			fmt.Fprintln(os.Stderr, "rfhbench:", err)
			os.Exit(1)
		}
	default:
		fmt.Fprintln(os.Stderr, "rfhbench: -suite must be repair or stress")
		os.Exit(2)
	}
}
