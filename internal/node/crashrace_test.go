package node

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/transport"
)

// TestCrashRestartRacesReadsAndAE cycles one node through Crash/Restart
// while R=2 quorum reads, W=2 writes, per-epoch anti-entropy rounds and
// direct probe/offer requests (the target side of an AE session) run
// against the fleet. Crash and Restart swap the node's store under
// n.mu, so every path that reaches a partition must take its pointer
// while holding the lock; under -race an unlocked re-read on the AE
// round, transfer handler or read-repair paths is reported here. Such a
// re-read only races when the crash lands between two reads of one
// exchange (each read is followed by an operation that the crash's
// store close orders), so the writes keep the AE roots diverging — a
// divergent round opens sessions that probe, offer and ship with round
// trips between their reads — and every round starts from a fresh
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
	loop(func(r int) { // writes that keep the AE roots diverging
		_ = nodes[(r+2)%len(nodes)].Put(keys[r%len(keys)], []byte(fmt.Sprint(r)))
	})
	offer := appendEntries(nil, []durable.Entry{{Key: keys[0], Ver: 1}})
	loop(func(r int) { // the target side of AE sessions, served by the victim
		p, sid := uint32(r%len(keys)), uint64(r)
		_, _ = nodes[victim].Handle(f.Addr(0), &transport.Message{Kind: KindXferCursor, Partition: p, Session: sid})
		_, _ = nodes[victim].Handle(f.Addr(0), &transport.Message{Kind: KindXferOffer, Partition: p, Session: sid, Value: offer})
	})

	waitFor := func(what string, cond func() bool) {
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				close(stop) // the loops would outlive the test and skew the next one's allocation counts
				wg.Wait()
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
