// Command rfhctl is the operator client for a live rfhnode cluster.
//
//	rfhctl put -addr 127.0.0.1:7000 mykey myvalue
//	rfhctl get -addr 127.0.0.1:7000 mykey
//	rfhctl ping -addr 127.0.0.1:7000
//	rfhctl dump -addr 127.0.0.1:7000
//	rfhctl tick -peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002 -n 5
//	rfhctl replay -peers ... -trace trace.csv -partitions 64
//
// tick drives the whole roster through lockstep epochs (flush every
// node, then run every node) — the deterministic way to advance
// clusters started with -epoch 0. replay injects the demand of a CSV
// trace produced by the library's EmitTrace: for every epoch it issues
// each partition's queries against the requester datacenter's node,
// ticks the cluster, and finally reports the client-observed latency
// distribution.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/metrics"
	"repro/internal/node"
	"repro/internal/transport"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "rfhctl:", err)
		os.Exit(1)
	}
}

func usage() error {
	return fmt.Errorf("usage: rfhctl <put|get|ping|dump|tick|replay> [flags]")
}

func run(args []string) error {
	if len(args) == 0 {
		return usage()
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "put":
		return cmdPut(rest)
	case "get":
		return cmdGet(rest)
	case "ping":
		return cmdPing(rest)
	case "dump":
		return cmdDump(rest)
	case "tick":
		return cmdTick(rest)
	case "replay":
		return cmdReplay(rest)
	default:
		return usage()
	}
}

// client dials are one-shot; keep the retry budget small so operator
// errors (wrong address) fail fast.
func newClient() *transport.TCP {
	return transport.NewTCPClient(transport.DefaultTCPOptions())
}

func cmdPut(args []string) error {
	fs := flag.NewFlagSet("put", flag.ExitOnError)
	addr := fs.String("addr", "", "address of any cluster node")
	fs.Parse(args)
	if *addr == "" || fs.NArg() != 2 {
		return fmt.Errorf("usage: rfhctl put -addr host:port <key> <value>")
	}
	cl := newClient()
	defer cl.Close()
	resp, err := cl.Send(*addr, &transport.Message{
		Kind:  node.KindPut,
		Key:   []byte(fs.Arg(0)),
		Value: []byte(fs.Arg(1)),
	})
	if err != nil {
		return err
	}
	if err := resp.Err(); err != nil {
		return err
	}
	rcpt, err := node.DecodePutReceipt(resp)
	if err != nil {
		return fmt.Errorf("bad put receipt: %v", err)
	}
	fmt.Printf("OK version=%d acked=%v\n", rcpt.Version, rcpt.Acked)
	return nil
}

func cmdGet(args []string) error {
	fs := flag.NewFlagSet("get", flag.ExitOnError)
	addr := fs.String("addr", "", "address of any cluster node")
	fs.Parse(args)
	if *addr == "" || fs.NArg() != 1 {
		return fmt.Errorf("usage: rfhctl get -addr host:port <key>")
	}
	cl := newClient()
	defer cl.Close()
	resp, err := cl.Send(*addr, &transport.Message{
		Kind: node.KindGet,
		Key:  []byte(fs.Arg(0)),
	})
	if err != nil {
		return err
	}
	if err := resp.Err(); err != nil {
		return err
	}
	if resp.Status == transport.StatusNotFound {
		return fmt.Errorf("key %q not found", fs.Arg(0))
	}
	os.Stdout.Write(resp.Value)
	fmt.Println()
	return nil
}

func cmdPing(args []string) error {
	fs := flag.NewFlagSet("ping", flag.ExitOnError)
	addr := fs.String("addr", "", "node address")
	fs.Parse(args)
	if *addr == "" {
		return fmt.Errorf("usage: rfhctl ping -addr host:port")
	}
	cl := newClient()
	defer cl.Close()
	start := node.WallClock.Now()
	resp, err := cl.Send(*addr, &transport.Message{Kind: node.KindPing})
	if err != nil {
		return err
	}
	if err := resp.Err(); err != nil {
		return err
	}
	fmt.Printf("pong from %s in %v\n", *addr, node.WallClock.Now().Sub(start))
	return nil
}

func cmdDump(args []string) error {
	fs := flag.NewFlagSet("dump", flag.ExitOnError)
	addr := fs.String("addr", "", "node address")
	fs.Parse(args)
	if *addr == "" {
		return fmt.Errorf("usage: rfhctl dump -addr host:port")
	}
	cl := newClient()
	defer cl.Close()
	resp, err := cl.Send(*addr, &transport.Message{Kind: node.KindDump})
	if err != nil {
		return err
	}
	if err := resp.Err(); err != nil {
		return err
	}
	var pretty map[string]any
	if err := json.Unmarshal(resp.Value, &pretty); err != nil {
		return fmt.Errorf("bad dump payload: %v", err)
	}
	out, err := json.MarshalIndent(pretty, "", "  ")
	if err != nil {
		return err
	}
	os.Stdout.Write(out)
	fmt.Println()

	// A typed second pass over the same payload summarises the durable
	// state the JSON above carries per partition: total bytes resident,
	// WAL records awaiting compaction, and transfer-session counters.
	var d node.DumpInfo
	if err := json.Unmarshal(resp.Value, &d); err == nil && d.Durable {
		bytes, walRecords, compactions, resident := 0, 0, 0, 0
		for _, p := range d.Partitions {
			bytes += p.Bytes
			walRecords += p.WALRecords
			compactions += p.Compactions
			if p.Resident {
				resident++
			}
		}
		fmt.Printf("durable: %d/%d partitions resident, %d bytes, %d WAL records, %d compactions\n",
			resident, len(d.Partitions), bytes, walRecords, compactions)
		t := d.Transfers
		fmt.Printf("transfers: %d started, %d completed, %d resumed, %d expired, %d chunks\n",
			t.Started, t.Completed, t.Resumed, t.Expired, t.ChunksSent)
		fmt.Printf("delta: %d delta sessions, %d full, %d bytes sent, %d bytes saved\n",
			t.DeltaSessions, t.FullSessions, t.BytesSent, t.BytesSaved)
	}
	if ae := d.AntiEntropy; ae.Rounds > 0 {
		fmt.Printf("anti-entropy: %d roots published, %d in sync, %d sessions, %d entries repaired, %d payload bytes\n",
			ae.Rounds, ae.Synced, ae.Sessions, ae.Repairs, ae.PayloadBytes)
	}
	return nil
}

// parseAddrs splits a -peers list. Order matters: position i is roster
// index i (datacenter i of a replayed trace), so pass addresses in
// node-id order.
func parseAddrs(s string) ([]string, error) {
	if s == "" {
		return nil, fmt.Errorf("missing -peers (host:port,... in node-id order)")
	}
	var addrs []string
	for _, a := range strings.Split(s, ",") {
		a = strings.TrimSpace(a)
		if a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		return nil, fmt.Errorf("empty -peers")
	}
	return addrs, nil
}

// tickOnce drives one lockstep epoch: every node flushes (broadcasts
// its stats), then every node runs its decision step. Matching the
// fleet harness, both phases visit the roster in order.
func tickOnce(cl *transport.TCP, addrs []string) error {
	for _, a := range addrs {
		resp, err := cl.Send(a, &transport.Message{Kind: node.KindEpochFlush})
		if err != nil {
			return fmt.Errorf("flush %s: %w", a, err)
		}
		if err := resp.Err(); err != nil {
			return fmt.Errorf("flush %s: %w", a, err)
		}
	}
	for _, a := range addrs {
		resp, err := cl.Send(a, &transport.Message{Kind: node.KindEpochRun})
		if err != nil {
			return fmt.Errorf("run %s: %w", a, err)
		}
		if err := resp.Err(); err != nil {
			return fmt.Errorf("run %s: %w", a, err)
		}
	}
	return nil
}

func cmdTick(args []string) error {
	fs := flag.NewFlagSet("tick", flag.ExitOnError)
	peers := fs.String("peers", "", "all node addresses, comma separated, in node-id order")
	n := fs.Int("n", 1, "number of epochs to advance")
	fs.Parse(args)
	addrs, err := parseAddrs(*peers)
	if err != nil {
		return err
	}
	cl := newClient()
	defer cl.Close()
	for i := 0; i < *n; i++ {
		if err := tickOnce(cl, addrs); err != nil {
			return err
		}
	}
	fmt.Printf("advanced %d epoch(s) on %d nodes\n", *n, len(addrs))
	return nil
}

func cmdReplay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	peers := fs.String("peers", "", "all node addresses, comma separated, in node-id order")
	trace := fs.String("trace", "", "CSV demand trace (rows: epoch,partition,q_dc0,...)")
	partitions := fs.Int("partitions", 64, "partition count of the trace and the cluster")
	epochs := fs.Int("epochs", 0, "epochs to replay (0 = full trace length)")
	seedKeys := fs.Bool("seed-keys", true, "put one key per partition before replaying so gets hit data")
	fs.Parse(args)
	addrs, err := parseAddrs(*peers)
	if err != nil {
		return err
	}
	if *trace == "" {
		return fmt.Errorf("missing -trace")
	}
	f, err := os.Open(*trace)
	if err != nil {
		return err
	}
	tr, err := workload.NewTrace(*trace, f, *partitions, len(addrs))
	f.Close()
	if err != nil {
		return err
	}
	n := *epochs
	if n <= 0 {
		n = tr.Len()
	}

	cl := newClient()
	defer cl.Close()

	keys := make([]string, *partitions)
	for p := range keys {
		keys[p] = node.PartitionKey(p, *partitions)
	}
	if *seedKeys {
		for p, k := range keys {
			resp, err := cl.Send(addrs[0], &transport.Message{
				Kind:  node.KindPut,
				Key:   []byte(k),
				Value: []byte(fmt.Sprintf("seed-%d", p)),
			})
			if err != nil {
				return fmt.Errorf("seed partition %d: %w", p, err)
			}
			if err := resp.Err(); err != nil {
				return fmt.Errorf("seed partition %d: %w", p, err)
			}
		}
	}

	lat := metrics.NewLatencySampler()
	queries, found, errors := 0, 0, 0
	for e := 0; e < n; e++ {
		m := tr.Epoch(e)
		for p := 0; p < *partitions; p++ {
			for d, q := range m.Q[p] {
				for i := 0; i < q; i++ {
					queries++
					start := node.WallClock.Now()
					resp, err := cl.Send(addrs[d], &transport.Message{
						Kind: node.KindGet,
						Key:  []byte(keys[p]),
					})
					if err != nil || resp.Err() != nil {
						errors++
						continue
					}
					lat.Observe(float64(node.WallClock.Now().Sub(start).Microseconds()) / 1e3)
					if resp.Status == transport.StatusOK {
						found++
					}
				}
			}
		}
		if err := tickOnce(cl, addrs); err != nil {
			return err
		}
		fmt.Printf("epoch %d/%d: %d queries so far\n", e+1, n, queries)
	}

	fmt.Printf("replayed %d epochs: %d queries, %d found, %d errors\n", n, queries, found, errors)
	if lat.Count() > 0 {
		fmt.Printf("client latency ms: mean %.3f  p50 %.3f  p99 %.3f  p99.9 %.3f  max %.3f\n",
			lat.Mean(), lat.Quantile(0.5), lat.Quantile(0.99), lat.Quantile(0.999), lat.Quantile(1))
	}
	return nil
}
