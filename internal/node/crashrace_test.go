package node

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/transport"
)

// TestCrashRestartRacesReadsAndAE cycles one node through Crash/Restart
// while R=2 quorum reads, W=2 writes, per-epoch anti-entropy rounds and
// direct AE digest/fetch requests run against the fleet. Crash and
// Restart swap the node's store under n.mu, so every path that reaches
// a partition must take its pointer while holding the lock; under -race
// an unlocked re-read on the AE pull, AE handler or read-repair paths
// is reported here. Such a re-read only races when the crash lands
// between two reads of one walk (each read is followed by an operation
// that the crash's store close orders), so the writes keep the AE
// digests diverging — a divergent pull walks the tree with a primary
// round trip between its reads — and every round starts from a fresh
// fleet, where the victim still co-holds its seed replicas.
func TestCrashRestartRacesReadsAndAE(t *testing.T) {
	for round := 0; round < 10; round++ {
		crashRaceRound(t, round)
	}
}

func crashRaceRound(t *testing.T, round int) {
	cfg := quorumConfig(2, 2)
	cfg.AEInterval = 1
	cfg.Seed = uint64(7 + round)
	f, err := NewFleet(4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for i := 0; i < 4; i++ {
		if err := f.Tick(); err != nil {
			t.Fatalf("round %d: tick %d: %v", round, i, err)
		}
	}
	keys := make([]string, cfg.Partitions)
	for p := range keys {
		keys[p] = PartitionKey(p, cfg.Partitions)
		if err := f.Node(p%f.Len()).Put(keys[p], []byte("v")); err != nil {
			t.Fatalf("round %d: seed put %d: %v", round, p, err)
		}
	}

	// The goroutines below use the nodes directly: Fleet's bookkeeping
	// is single-threaded, and a crashed node refuses work on its own.
	// Their errors are expected while the victim is down.
	nodes := make([]*Node, f.Len())
	for i := range nodes {
		nodes[i] = f.Node(i)
	}
	const victim = 1
	stop := make(chan struct{})
	var wg sync.WaitGroup
	loop := func(body func(r int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; ; r++ {
				select {
				case <-stop:
					return
				default:
				}
				body(r)
			}
		}()
	}
	loop(func(int) { // lockstep epochs, each with an AE round
		for _, nd := range nodes {
			_ = nd.FlushEpoch()
		}
		for _, nd := range nodes {
			_ = nd.RunEpoch()
		}
		time.Sleep(200 * time.Microsecond)
	})
	loop(func(r int) { // quorum reads, the victim among the entry points
		_, _, _ = nodes[r%len(nodes)].Get(keys[r%len(keys)])
	})
	loop(func(r int) { // writes that keep the AE digests diverging
		_ = nodes[(r+2)%len(nodes)].Put(keys[r%len(keys)], []byte(fmt.Sprint(r)))
	})
	sub := appendAESub(nil, []int{0}, [][]uint64{make([]uint64, aeFanout)})
	loop(func(r int) { // the primary side of AE rounds, served by the victim
		p := uint32(r % len(keys))
		_, _ = nodes[victim].Handle(f.Addr(0), &transport.Message{Kind: KindAEDigest, Partition: p, Value: sub})
		_, _ = nodes[victim].Handle(f.Addr(0), &transport.Message{Kind: KindAEFetch, Partition: p, Value: appendAEKeys(nil, keys[p:p+1])})
	})

	waitFor := func(what string, cond func() bool) {
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: %s", round, what)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	// The victim stays down until its peers suspect it, so that live
	// primaries re-claim its partitions and the rejoin completes.
	for cycle := 0; cycle < 2; cycle++ {
		waitFor("victim never finished recovering", func() bool { return !nodes[victim].Recovering() })
		time.Sleep(2 * time.Millisecond)
		nodes[victim].Crash()
		down := nodes[0].Epoch()
		waitFor("fleet stopped ticking", func() bool { return nodes[0].Epoch() > down+uint64(cfg.SuspectAfter) })
		if err := nodes[victim].Restart(nodes[0].Epoch()); err != nil {
			t.Fatalf("round %d: restart: %v", round, err)
		}
	}
	close(stop)
	wg.Wait()
	if nodes[victim].Crashed() {
		t.Fatalf("round %d: victim still crashed after its last restart", round)
	}
}
