package node

import (
	"fmt"
	"testing"

	"repro/internal/durable"
)

// transferTestConfig forces every entry into its own chunk so even the
// tiny test partitions exercise multi-chunk sessions.
func transferTestConfig() Config {
	cfg := testConfig()
	cfg.TransferChunkEntries = 1
	cfg.SnapshotOneFrameBytes = 1
	return cfg
}

// seedPartition plants count entries directly into a node's partition
// with ascending versions, bypassing routing — transfer tests care
// about shipping state, not producing it.
func seedPartition(t *testing.T, nd *Node, p, count int) []durable.Entry {
	t.Helper()
	var entries []durable.Entry
	for i := 0; i < count; i++ {
		entries = append(entries, durable.Entry{
			Key: fmt.Sprintf("xfer-%d-%d", p, i),
			Val: []byte(fmt.Sprintf("value-%d", i)),
			Ver: uint64(i + 1),
		})
	}
	if err := nd.store.Part(p).MergeSnapshot(entries); err != nil {
		t.Fatalf("seed partition %d: %v", p, err)
	}
	return entries
}

func TestTransferChunkedRoundTrip(t *testing.T) {
	h := newHarness(t, "loopback", 3, transferTestConfig())
	src, dst := h.nodes[0], h.nodes[1]
	const p = 0
	entries := seedPartition(t, src, p, 5)
	dst.store.Part(p).Drop()
	if dst.store.Part(p).Stats().Resident {
		t.Fatal("dropped partition still resident")
	}

	if !src.TransferPartition(p, 1) {
		t.Fatal("TransferPartition did not complete")
	}
	for _, e := range entries {
		v, ver, ok, _ := dst.store.Part(p).Get(e.Key)
		if !ok || string(v) != string(e.Val) || ver != e.Ver {
			t.Fatalf("key %q after transfer: val=%q ver=%d ok=%v, want %q/%d", e.Key, v, ver, ok, e.Val, e.Ver)
		}
	}
	if !dst.store.Part(p).Stats().Resident {
		t.Error("target not resident after completed marked transfer")
	}
	if holds := src.store.Part(p).Stats().Holds; holds != 0 {
		t.Errorf("source still holds %d snapshot leases after completion", holds)
	}
	st := src.TransferStats()
	if st.Started != 1 || st.Completed != 1 || st.ChunksSent != 5 || st.Resumed != 0 {
		t.Errorf("stats = %+v, want started=1 completed=1 chunks=5 resumed=0", st)
	}
}

// TestTransferResumesFromTargetCursor pins the resume contract: after
// an interrupted round, the source's next pump probes the target's
// cursor and continues from it instead of restarting the session —
// already-delivered chunks are never re-sent.
func TestTransferResumesFromTargetCursor(t *testing.T) {
	h := newHarness(t, "loopback", 3, transferTestConfig())
	src, dst := h.nodes[0], h.nodes[1]
	const p = 1
	seedPartition(t, src, p, 4)
	dst.store.Part(p).Drop()

	src.mu.RLock()
	src.startTransferLocked(p, 1, true)
	src.mu.RUnlock()
	// Freeze the session by hand as a full plan — the scenario models a
	// prior round whose planning probe and begin already happened.
	entries, maxVer := src.store.Part(p).Entries()
	src.xmu.Lock()
	sess := src.xfers[0]
	sess.chunks = sliceChunks(entries, src.cfg.TransferChunkEntries)
	sess.maxVer = maxVer
	sess.planned = true
	src.xmu.Unlock()

	// Simulate a prior round that died after the begin and one chunk:
	// the target holds the session with its cursor at 1, the source
	// only knows the round was interrupted.
	total := uint32(len(sess.chunks))
	if total != 4 {
		t.Fatalf("expected 4 chunks, got %d", total)
	}
	if _, err := dst.store.Part(p).BeginInbound(sess.id, total, true, sess.maxVer); err != nil {
		t.Fatal(err)
	}
	if _, _, err := dst.store.Part(p).ApplyChunk(sess.id, 0, sess.chunks[0]); err != nil {
		t.Fatal(err)
	}
	src.xmu.Lock()
	sess.begun = true
	sess.interrupted = true
	src.xmu.Unlock()

	if !src.pumpSession(sess) {
		t.Fatal("pump after interruption did not complete the session")
	}
	st := src.TransferStats()
	if st.Resumed != 1 {
		t.Errorf("Resumed = %d, want 1 (cursor adopted from target)", st.Resumed)
	}
	if st.ChunksSent != int64(total)-1 {
		t.Errorf("ChunksSent = %d, want %d (chunk 0 must not be re-sent)", st.ChunksSent, total-1)
	}
	if !dst.store.Part(p).Stats().Resident {
		t.Error("target not resident after resumed transfer completed")
	}
}

// TestSessionIDsUniqueAcrossRestart pins the boot-generation scheme:
// ids issued after a crash+restart must not collide with pre-crash
// ids — targets durably remember completed session ids, so a reused
// id would be answered "already complete" without anything shipping.
// The per-boot sequence is reset by hand because the harness keeps
// the Node object across simulated restarts; a real process restart
// starts from zero, and only the persisted generation keeps the ids
// apart.
func TestSessionIDsUniqueAcrossRestart(t *testing.T) {
	cfg := transferTestConfig()
	cfg.DataDir = t.TempDir()
	f, err := NewFleet(3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	src := f.Node(0)
	const p = 0
	seedPartition(t, src, p, 2)
	src.mu.RLock()
	src.startTransferLocked(p, 1, true)
	src.mu.RUnlock()
	src.xmu.Lock()
	before := src.xfers[0].id
	src.xmu.Unlock()

	f.Crash(0)
	if err := f.Restart(0); err != nil {
		t.Fatal(err)
	}
	src.xmu.Lock()
	src.xseq = 0
	src.xmu.Unlock()
	seedPartition(t, src, p, 2)
	src.mu.RLock()
	src.startTransferLocked(p, 1, true)
	src.mu.RUnlock()
	src.xmu.Lock()
	after := src.xfers[0].id
	src.xmu.Unlock()
	if before == after {
		t.Fatalf("session id %#x reused across restart", before)
	}
}

// TestBusySessionNotLeaseExpired pins the ager/pump interaction: a
// session claimed by a concurrent pump only settles its advanced
// cursor when it finishes, so the ager sees a stale s.next and must
// skip the session instead of expiring an actively progressing
// transfer mid-pump.
func TestBusySessionNotLeaseExpired(t *testing.T) {
	cfg := transferTestConfig()
	cfg.TransferLeaseEpochs = 1
	f, err := NewFleet(3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	src := f.Node(0)
	const p = 2
	seedPartition(t, src, p, 3)
	f.Crash(1)

	src.mu.RLock()
	src.startTransferLocked(p, 1, true)
	src.mu.RUnlock()
	src.xmu.Lock()
	sess := src.xfers[0]
	sess.busy = true // a concurrent shipPartition pump holds the session
	src.xmu.Unlock()

	for i := 0; i < cfg.TransferLeaseEpochs+3; i++ {
		src.pumpTransfers()
	}
	if st := src.TransferStats(); st.Expired != 0 {
		t.Fatalf("busy session lease-expired: %+v", st)
	}
	if holds := src.store.Part(p).Stats().Holds; holds != 1 {
		t.Fatalf("holds = %d while the session is claimed, want 1", holds)
	}

	// The pump settles: aging resumes, and the genuinely stuck session
	// (target crashed) expires as before.
	src.xmu.Lock()
	sess.busy = false
	src.xmu.Unlock()
	for i := 0; i < cfg.TransferLeaseEpochs+2; i++ {
		src.pumpTransfers()
	}
	if st := src.TransferStats(); st.Expired != 1 {
		t.Fatalf("released session never expired: %+v", st)
	}
	if holds := src.store.Part(p).Stats().Holds; holds != 0 {
		t.Fatalf("holds = %d after expiry, want 0", holds)
	}
}

// TestTransferLeaseExpiryFreesHold pins the lease: a session making no
// cursor progress for TransferLeaseEpochs pumps is abandoned and its
// compaction hold released — a crashed target cannot pin the source's
// snapshot forever.
func TestTransferLeaseExpiryFreesHold(t *testing.T) {
	cfg := transferTestConfig()
	cfg.TransferLeaseEpochs = 2
	f, err := NewFleet(3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	src := f.Node(0)
	const p = 3
	seedPartition(t, src, p, 3)
	f.Crash(1) // target unreachable: every pump round fails

	src.mu.RLock()
	src.startTransferLocked(p, 1, true)
	src.mu.RUnlock()
	if holds := src.store.Part(p).Stats().Holds; holds != 1 {
		t.Fatalf("holds after start = %d, want 1", holds)
	}

	for i := 0; i < cfg.TransferLeaseEpochs+2; i++ {
		src.pumpTransfers()
	}
	if holds := src.store.Part(p).Stats().Holds; holds != 0 {
		t.Errorf("holds after lease expiry = %d, want 0", holds)
	}
	st := src.TransferStats()
	if st.Expired != 1 || st.Completed != 0 {
		t.Errorf("stats = %+v, want expired=1 completed=0", st)
	}
	src.xmu.Lock()
	live := len(src.xfers)
	src.xmu.Unlock()
	if live != 0 {
		t.Errorf("%d sessions still tracked after expiry", live)
	}
}
