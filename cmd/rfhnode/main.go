// Command rfhnode serves one node of a live RFH cluster over TCP: a
// partitioned KV store whose replica placement is driven by the same
// policy layer as the simulator. By default the store is in-memory;
// -data-dir puts it on the durable engine (per-partition WALs plus
// compacted snapshots), which a restarted node replays on the way up
// before rejoining the cluster.
//
//	rfhnode -id 0 -peers 0=127.0.0.1:7000,1=127.0.0.1:7001,2=127.0.0.1:7002
//	rfhnode -id 1 -peers ... -epoch 2s        # self-ticking epochs
//	rfhnode -id 2 -peers ... -epoch 0         # manual: tick via `rfhctl tick`
//	rfhnode -id 0 -peers ... -data-dir /var/lib/rfh/node0   # durable store
//
// Every peer must be started with the same -peers roster, -partitions,
// -policy, -capacity, -suspect-after and -seed, so that all nodes hold
// the identical deterministic view of the cluster. -write-quorum and
// -read-quorum bind on whichever node coordinates a request (the
// partition primary), so run the same values fleet-wide for uniform
// durability semantics. With -epoch 0 the node never ticks on its own;
// drive the cluster in lockstep with `rfhctl tick`, which is also how
// seeded runs stay reproducible.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/node"
	"repro/internal/transport"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "rfhnode:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		id           = flag.Int("id", -1, "this node's id (must appear in -peers)")
		peersFlag    = flag.String("peers", "", "full cluster roster as id=host:port,... (≥3 peers)")
		listen       = flag.String("listen", "", "listen address (default: this id's address from -peers)")
		partitions   = flag.Int("partitions", 64, "number of partitions (same on every peer)")
		capacity     = flag.Int("capacity", 100, "per-replica queries served per epoch, eq. (12) overload bound")
		policyName   = flag.String("policy", "rfh", "placement policy: "+strings.Join(core.PolicyNames(), ", "))
		suspectAfter = flag.Int("suspect-after", 3, "consecutive missed stats broadcasts before a peer is declared failed")
		seed         = flag.Uint64("seed", 1, "determinism seed (same on every peer)")
		epoch        = flag.Duration("epoch", 0, "epoch tick period; 0 means manual ticking via rfhctl tick")
		writeQuorum  = flag.Int("write-quorum", 1, "holders that must durably accept before a put is acked (W; capped at the eq. 14 placement floor)")
		readQuorum   = flag.Int("read-quorum", 1, "holders consulted per read, newest version wins and stale copies are repaired (R)")
		dataDir      = flag.String("data-dir", "", "durable storage directory (WALs + snapshots, recovered on restart); empty keeps the in-memory store")
		fsync        = flag.Bool("fsync", true, "fsync WAL appends and snapshots before acking (durable mode only; off trades power-cut safety for speed)")
		aeInterval   = flag.Int("ae-interval", 0, "epochs between anti-entropy digest rounds (primaries reconcile co-holders via Merkle digests; 0 disables)")
	)
	flag.Parse()

	peers, err := parsePeers(*peersFlag)
	if err != nil {
		return err
	}
	cfg := node.DefaultConfig(*id, peers)
	cfg.Partitions = *partitions
	cfg.ReplicaCapacity = *capacity
	cfg.PolicyName = *policyName
	cfg.SuspectAfter = *suspectAfter
	cfg.Seed = *seed
	cfg.WriteQuorum = *writeQuorum
	cfg.ReadQuorum = *readQuorum
	cfg.DataDir = *dataDir
	cfg.Fsync = *fsync
	cfg.AEInterval = *aeInterval
	if err := cfg.Validate(); err != nil {
		return err
	}

	addr := *listen
	if addr == "" {
		for _, p := range cfg.Peers {
			if p.ID == *id {
				addr = p.Addr
			}
		}
	}

	tr, err := transport.ListenTCP(addr, nil, transport.DefaultTCPOptions())
	if err != nil {
		return err
	}
	n, err := node.New(cfg, tr)
	if err != nil {
		tr.Close()
		return err
	}
	defer n.Close()
	durability := "memory"
	if cfg.DataDir != "" {
		durability = fmt.Sprintf("durable %s fsync=%v", cfg.DataDir, cfg.Fsync)
	}
	fmt.Printf("rfhnode: node %d listening on %s (%d peers, %d partitions, policy %s, min replicas %d, W=%d R=%d, %s)\n",
		*id, tr.Addr(), len(cfg.Peers), cfg.Partitions, cfg.PolicyName, n.MinReplicas(),
		cfg.WriteQuorum, cfg.ReadQuorum, durability)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)

	if *epoch <= 0 {
		<-sigc
		fmt.Println("rfhnode: shutting down")
		return nil
	}

	// Self-ticking mode: alternate the two epoch phases on half-period
	// boundaries. FlushEpoch broadcasts this node's stats; half a period
	// later RunEpoch folds everyone's broadcasts into the decision step.
	// Nodes need not be phase-aligned — a stats blob arriving after the
	// local RunEpoch is buffered for the next epoch.
	tick := time.NewTicker(*epoch / 2)
	defer tick.Stop()
	flushNext := true
	for {
		select {
		case <-sigc:
			fmt.Println("rfhnode: shutting down")
			return nil
		case <-tick.C:
			var err error
			if flushNext {
				err = n.FlushEpoch()
			} else {
				err = n.RunEpoch()
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "rfhnode: epoch tick:", err)
			}
			flushNext = !flushNext
		}
	}
}

// parsePeers parses "0=127.0.0.1:7000,1=127.0.0.1:7001,..." into a
// roster sorted by id.
func parsePeers(s string) ([]node.Peer, error) {
	if s == "" {
		return nil, fmt.Errorf("missing -peers (id=host:port,...)")
	}
	var peers []node.Peer
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, addr, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("peer %q: want id=host:port", part)
		}
		n, err := strconv.Atoi(id)
		if err != nil {
			return nil, fmt.Errorf("peer %q: bad id: %v", part, err)
		}
		peers = append(peers, node.Peer{ID: n, Addr: addr})
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i].ID < peers[j].ID })
	return peers, nil
}
