package chaos

import (
	"fmt"
	"testing"

	"repro/internal/node"
	"repro/internal/transport"
)

// TestSeedMatrixDurable is the disk-backed half of the seed matrix:
// the same scenarios run over the durable engine with real per-node
// data directories, so every crash keeps the victim's disk and every
// restart replays its WALs. Each seed runs twice in different
// directories — the trajectory must not depend on where the disk
// lives, only on the seed.
func TestSeedMatrixDurable(t *testing.T) {
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	for s := 1; s <= seeds; s++ {
		seed := uint64(s)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			opts := DefaultOptions(seed)
			opts.DataDir = t.TempDir()
			a, err := Run(opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range a.Violations {
				t.Errorf("%s", v)
			}
			if a.Acked == 0 {
				t.Error("durable scenario acked no writes at all")
			}
			if a.Transfers.Completed == 0 || a.Transfers.BytesSent == 0 {
				t.Errorf("durable scenario completed no transfer session that shipped bytes (stats %+v)", a.Transfers)
			}
			opts.DataDir = t.TempDir()
			b, err := Run(opts)
			if err != nil {
				t.Fatal(err)
			}
			if a.Trajectory != b.Trajectory {
				t.Fatalf("durable trajectories differ across directories:\n--- run 1\n%s\n--- run 2\n%s",
					a.Trajectory, b.Trajectory)
			}
		})
	}
}

// TestTransferResumesAcrossTargetRestart is the acceptance scenario
// for the resume cursor: a chunked transfer is severed after its first
// chunk, the TARGET is crashed and restarted (its cursor surviving
// only in its WAL), and the re-driven session must continue from the
// recovered cursor — chunk 0 is never sent twice, and the session is
// never re-begun from scratch.
func TestTransferResumesAcrossTargetRestart(t *testing.T) {
	const (
		fleetSize = 4
		target    = 1
		keyCount  = 5
	)
	cfg := node.DefaultConfig(0, nil)
	cfg.Partitions = 8
	cfg.ReplicaCapacity = 8
	cfg.SuspectAfter = 2
	cfg.Seed = 11
	cfg.DataDir = t.TempDir()
	cfg.Fsync = false
	cfg.TransferChunkEntries = 1 // one entry per chunk
	cfg.TransferLeaseEpochs = 50 // the outage must not expire the lease

	sever := false
	passed := 0
	var targetAddr string
	wrap := func(i int, tr transport.Transport) transport.Transport {
		return transport.NewFault(tr, func(from, to string, m *transport.Message) transport.FaultAction {
			if sever && to == targetAddr && m.Kind == node.KindXferChunk {
				if passed >= 1 {
					return transport.FaultDrop
				}
				passed++
			}
			return transport.FaultDeliver
		})
	}
	f, err := node.NewFleetWrapped(fleetSize, cfg, wrap)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	targetAddr = f.Addr(target)
	warm(t, f, 4)

	// Fill one partition with enough keys for a multi-chunk session,
	// sourced from the partition's primary so it owns the full state.
	const p = 0
	var keys []string
	for i := 0; len(keys) < keyCount; i++ {
		key := fmt.Sprintf("resume-%d", i)
		if f.Node(0).PartitionOf(key) == p {
			keys = append(keys, key)
		}
	}
	//lint:ignore rfhlint/closecheck Node borrows the fleet's slot; f.Close owns shutdown
	src := f.Node(f.Node(0).Primaries()[p])
	for _, key := range keys {
		if err := src.Put(key, []byte("v."+key)); err != nil {
			t.Fatalf("put %q: %v", key, err)
		}
	}

	// The warm-up already shipped partitions through sessions, so every
	// check below is on counter deltas from here.
	base := src.TransferStats()
	since := func() node.TransferStats {
		st := src.TransferStats()
		return node.TransferStats{
			Started:       st.Started - base.Started,
			Completed:     st.Completed - base.Completed,
			Resumed:       st.Resumed - base.Resumed,
			ChunksSent:    st.ChunksSent - base.ChunksSent,
			DeltaSessions: st.DeltaSessions - base.DeltaSessions,
			BytesSaved:    st.BytesSaved - base.BytesSaved,
		}
	}

	// Round 1: the session delivers exactly one chunk, then every
	// further chunk is dropped — the pump ends interrupted.
	sever = true
	if src.TransferPartition(p, target) {
		t.Fatal("severed transfer reported complete")
	}
	st := since()
	if st.Started != 1 || st.Completed != 0 {
		t.Fatalf("after severed round: stats delta %+v, want one open uncompleted session", st)
	}
	chunksBefore := st.ChunksSent

	// The target dies and returns; its resume cursor now exists only in
	// the WAL it replays on the way up.
	f.Crash(target)
	if err := f.Restart(target); err != nil {
		t.Fatal(err)
	}
	sever = false

	// Round 2: the pump probes the recovered cursor and streams the
	// remaining chunks from there.
	if !src.TransferPartition(p, target) {
		t.Fatal("resumed transfer did not complete")
	}
	st = since()
	if st.Resumed == 0 {
		t.Error("session completed without adopting the target's recovered cursor (Resumed=0) — a stubbed cursor would look exactly like this")
	}
	if st.Completed != 1 || st.Started != 1 {
		t.Errorf("stats delta %+v, want exactly one session started and completed (a re-begun session is a failed resume)", st)
	}
	if got, want := st.ChunksSent, int64(keyCount); got != want {
		t.Errorf("chunks sent over both rounds = %d, want %d: chunk 0 must ride exactly once (sent %d before the crash)",
			got, want, chunksBefore)
	}
	for _, key := range keys {
		if v, ok := f.Node(target).LocalGet(key); !ok || string(v) != "v."+key {
			t.Errorf("target missing %q after resumed transfer (got %q ok=%v)", key, v, ok)
		}
	}

	// Round 3: the completed transfer marked the target resident with a
	// watermark, so a re-migration after fresh writes must plan a DELTA
	// session — only the new keys ship, not the whole partition again.
	var fresh []string
	for i := 100; len(fresh) < 2; i++ {
		key := fmt.Sprintf("resume-%d", i)
		if f.Node(0).PartitionOf(key) == p {
			fresh = append(fresh, key)
		}
	}
	for _, key := range fresh {
		if err := src.Put(key, []byte("v."+key)); err != nil {
			t.Fatalf("put %q: %v", key, err)
		}
	}
	base = src.TransferStats()
	if !src.TransferPartition(p, target) {
		t.Fatal("delta re-transfer did not complete")
	}
	st = since()
	if st.DeltaSessions != 1 {
		t.Errorf("DeltaSessions delta = %d after re-migrating a resident target, want 1 (stats delta %+v)", st.DeltaSessions, st)
	}
	if st.ChunksSent > int64(len(fresh)) {
		t.Errorf("delta re-transfer sent %d chunks, want at most %d (only the fresh keys may ship)", st.ChunksSent, len(fresh))
	}
	if st.BytesSaved == 0 {
		t.Error("delta re-transfer reports BytesSaved=0 — the plan shipped the full snapshot")
	}
	for _, key := range fresh {
		if v, ok := f.Node(target).LocalGet(key); !ok || string(v) != "v."+key {
			t.Errorf("target missing fresh %q after delta transfer (got %q ok=%v)", key, v, ok)
		}
	}
}
