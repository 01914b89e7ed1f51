package node

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/durable"
	"repro/internal/transport"
)

// transferTestConfig forces every entry into its own chunk so even the
// tiny test partitions exercise multi-chunk sessions.
func transferTestConfig() Config {
	cfg := testConfig()
	cfg.TransferChunkEntries = 1
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
	if _, _, err := dst.store.Part(p).BeginInbound(sess.id, total, true, sess.maxVer, false); err != nil {
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

// TestOneChunkShipIsTwoRequests pins what a small ship costs: a plan of
// one chunk is exactly two request frames — the planning probe, then a
// begin that carries the chunk and that the target completes at once —
// while a three-chunk plan still runs probe, begin, three chunks and
// done.
func TestOneChunkShipIsTwoRequests(t *testing.T) {
	cases := []struct {
		chunkEntries int
		chunks       int64
		want         []uint8
	}{
		{256, 1, []uint8{KindXferCursor, KindXferBegin}},
		{1, 3, []uint8{KindXferCursor, KindXferBegin, KindXferChunk, KindXferChunk, KindXferChunk, KindXferDone}},
	}
	for _, tc := range cases {
		cfg := testConfig()
		cfg.TransferChunkEntries = tc.chunkEntries
		var sent []uint8
		f, err := NewFleetWrapped(3, cfg, func(i int, tr transport.Transport) transport.Transport {
			return transport.NewFault(tr, func(from, to string, m *transport.Message) transport.FaultAction {
				if i == 0 {
					sent = append(sent, m.Kind)
				}
				return transport.FaultDeliver
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		//lint:ignore rfhlint/closecheck Node borrows the fleet's slot; f.Close owns shutdown
		src, dst := f.Node(0), f.Node(1)
		const p = 0
		entries := seedPartition(t, src, p, 3)
		dst.store.Part(p).Drop()

		sent = nil
		if !src.TransferPartition(p, 1) {
			t.Fatalf("%d entries per chunk: transfer did not complete", tc.chunkEntries)
		}
		if !slices.Equal(sent, tc.want) {
			t.Errorf("%d entries per chunk: request kinds %v, want %v", tc.chunkEntries, sent, tc.want)
		}
		for _, e := range entries {
			if v, ver, ok, _ := dst.store.Part(p).Get(e.Key); !ok || string(v) != string(e.Val) || ver != e.Ver {
				t.Errorf("%d entries per chunk: key %q = (%q, %d, %v) at the target", tc.chunkEntries, e.Key, v, ver, ok)
			}
		}
		if !dst.store.Part(p).Stats().Resident {
			t.Errorf("%d entries per chunk: target not resident after a full ship", tc.chunkEntries)
		}
		if st := src.TransferStats(); st.Completed != 1 || st.ChunksSent != tc.chunks {
			t.Errorf("%d entries per chunk: stats %+v, want 1 completed and %d chunks", tc.chunkEntries, st, tc.chunks)
		}
		f.Close()
	}
}

// TestPumpLanesSerializeLargeSessionsPerTarget pins how a pump round
// is split for fanOut: a session small enough that Fanout of them fit
// in one chunk runs in a lane of its own, larger sessions to one target
// share a lane, and under Fanout <= 1 every session keeps its own lane
// in session order.
func TestPumpLanesSerializeLargeSessionsPerTarget(t *testing.T) {
	for _, fanout := range []int{8, 1} {
		cfg := testConfig()
		cfg.Fanout = fanout
		h := newHarness(t, "loopback", 3, cfg)
		nd := h.nodes[0]
		big := make([]byte, maxChunkBytes/8)
		for _, p := range []int{1, 2} {
			if err := nd.store.Part(p).MergeSnapshot([]durable.Entry{{Key: fmt.Sprintf("big-%d", p), Ver: 1, Val: big}}); err != nil {
				t.Fatal(err)
			}
		}
		seedPartition(t, nd, 0, 2)
		nd.mu.RLock()
		bigTo1 := nd.startTransferLocked(1, 1, true)
		small := nd.startTransferLocked(0, 1, true)
		bigTo2 := nd.startTransferLocked(1, 2, true)
		big2To1 := nd.startTransferLocked(2, 1, true)
		nd.mu.RUnlock()

		want := [][]*xferSession{{bigTo1, big2To1}, {small}, {bigTo2}}
		if fanout <= 1 {
			want = [][]*xferSession{{bigTo1}, {small}, {bigTo2}, {big2To1}}
		}
		got := nd.pumpLanes([]*xferSession{bigTo1, small, bigTo2, big2To1})
		if len(got) != len(want) {
			t.Fatalf("fanout %d: %d lanes, want %d", fanout, len(got), len(want))
		}
		for i := range want {
			if !slices.Equal(got[i], want[i]) {
				t.Errorf("fanout %d: lane %d has %d sessions, want %d in order", fanout, i, len(got[i]), len(want[i]))
			}
		}
	}
}

// TestShipPartitionBypassesBusySession: the StatusRetry heal must not
// fail because another pump holds the live session for the same
// (partition, target) — on a live fleet that is the epoch's decision
// ship to a new holder, pumped while puts already sync it. The heal
// opens its own session and lands the write.
func TestShipPartitionBypassesBusySession(t *testing.T) {
	h := newHarness(t, "loopback", 3, transferTestConfig())
	src, dst := h.nodes[0], h.nodes[1]
	const p = 2
	entries := seedPartition(t, src, p, 3)
	dst.store.Part(p).Drop()
	src.mu.RLock()
	held := src.startTransferLocked(p, 1, true)
	src.mu.RUnlock()
	src.xmu.Lock()
	held.busy = true // a concurrent pump has it
	src.xmu.Unlock()

	if !src.shipPartition(p, 1, entries[len(entries)-1].Ver) {
		t.Fatal("heal failed while another pump held the pair's session")
	}
	if !dst.store.Part(p).Stats().Resident {
		t.Error("target not resident after the heal")
	}
	if st := src.TransferStats(); st.Started != 2 || st.Completed != 1 {
		t.Errorf("stats %+v, want the held session and the heal's own, the heal's completed", st)
	}
}

// TestMarkingShipDoesNotReuseNonMarkingSession: a decision ship or a
// StatusRetry heal that finds the pair's live session opened without
// marking (re-injection, anti-entropy) must not complete through it.
// That session leaves the target non-resident, yet the ship would
// report success — for the heal a durability ack, while the holder keeps
// refusing syncs.
func TestMarkingShipDoesNotReuseNonMarkingSession(t *testing.T) {
	for _, tc := range []struct {
		name string
		ship func(src *Node, p, target int) bool
	}{
		{"TransferPartition", func(src *Node, p, target int) bool { return src.TransferPartition(p, target) }},
		{"shipPartition", func(src *Node, p, target int) bool { return src.shipPartition(p, target, 0) }},
	} {
		h := newHarness(t, "loopback", 3, transferTestConfig())
		src, dst := h.nodes[0], h.nodes[1]
		const p = 2
		seedPartition(t, src, p, 3)
		dst.store.Part(p).Drop()
		src.mu.RLock()
		src.startTransferLocked(p, 1, false)
		src.mu.RUnlock()

		if !tc.ship(src, p, 1) {
			t.Fatalf("%s: ship did not complete", tc.name)
		}
		if !dst.store.Part(p).Stats().Resident {
			t.Errorf("%s: completed through the non-marking session; target not resident", tc.name)
		}
	}
}

// TestEmptyNonMarkingPlanSendsNoBegin: a session that marks nothing and
// finds the target already holding everything it would ship — an AE
// mismatch that settled by itself, a re-injection the holders are past —
// completes at planning. Its requests are the probe, plus the offer
// round when a bucket diverges, and no begin; its hold is released at
// once.
func TestEmptyNonMarkingPlanSendsNoBegin(t *testing.T) {
	cases := []struct {
		name  string
		newer bool // the target holds one key at a newer version
		want  []uint8
	}{
		{"identical", false, []uint8{KindXferCursor}},
		{"target newer", true, []uint8{KindXferCursor, KindXferOffer}},
	}
	for _, tc := range cases {
		var sent []uint8
		f, err := NewFleetWrapped(3, testConfig(), func(i int, tr transport.Transport) transport.Transport {
			return transport.NewFault(tr, func(from, to string, m *transport.Message) transport.FaultAction {
				if i == 0 {
					sent = append(sent, m.Kind)
				}
				return transport.FaultDeliver
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		//lint:ignore rfhlint/closecheck Node borrows the fleet's slot; f.Close owns shutdown
		src, dst := f.Node(0), f.Node(1)
		const p = 0
		entries := seedPartition(t, src, p, 3)
		if err := dst.store.Part(p).MergeSnapshot(entries); err != nil {
			t.Fatal(err)
		}
		if tc.newer {
			e := entries[0]
			e.Ver, e.Val = 1<<40, []byte("newer")
			if err := dst.store.Part(p).MergeSnapshot([]durable.Entry{e}); err != nil {
				t.Fatal(err)
			}
		}
		src.mu.RLock()
		s := src.startTransferLocked(p, 1, false)
		src.mu.RUnlock()

		sent = nil
		if !src.pumpSession(s) {
			t.Fatalf("%s: session did not complete", tc.name)
		}
		if !slices.Equal(sent, tc.want) {
			t.Errorf("%s: request kinds %v, want %v", tc.name, sent, tc.want)
		}
		if st := src.store.Part(p).Stats(); st.Holds != 0 {
			t.Errorf("%s: %d holds left on the source", tc.name, st.Holds)
		}
		if st := src.TransferStats(); st.Completed != 1 || st.ChunksSent != 0 {
			t.Errorf("%s: stats %+v, want 1 completed and no chunk", tc.name, st)
		}
		f.Close()
	}
}
