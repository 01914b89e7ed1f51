package node

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/durable"
	"repro/internal/transport"
	"repro/internal/workload"
)

func fleetZipf(t *testing.T, base Config, n int) workload.Generator {
	t.Helper()
	gen, err := workload.NewZipfPartitions(workload.Config{
		Partitions: base.Partitions, DCs: n, Lambda: 5, Seed: 11,
	}, 1.1)
	if err != nil {
		t.Fatal(err)
	}
	return gen
}

// statsMsg encodes a KindStats broadcast from roster index `from` at
// the given epoch carrying the given blob.
func statsMsg(from int, epoch uint64, blob *statsBlob) *transport.Message {
	return &transport.Message{
		Kind: KindStats, Origin: uint32(from), Epoch: epoch,
		Value: appendStats(nil, blob),
	}
}

// TestStaleEpochStatsIgnored asserts the stats handler's epoch window:
// broadcasts for the current epoch land in pending, one epoch ahead in
// nextPend, and anything older (or further ahead) is discarded — a
// node that slept through a partition must not have its stale counters
// or placement claims folded into a later epoch.
func TestStaleEpochStatsIgnored(t *testing.T) {
	h := newHarness(t, "loopback", 3, testConfig())
	gen := h.zipf(testConfig())
	for e := 0; e < 3; e++ {
		h.replay(gen.Epoch(e))
		h.tick()
	}
	nd := h.nodes[0]
	epoch := nd.Epoch()
	blob := &statsBlob{counters: []partitionCounters{{partition: 1, origin: 9}}}

	cases := []struct {
		name   string
		epoch  uint64
		landed func() *statsBlob
	}{
		{"stale", epoch - 1, func() *statsBlob { return nil }},
		{"ancient", 0, func() *statsBlob { return nil }},
		{"far future", epoch + 2, func() *statsBlob { return nil }},
		{"current", epoch, func() *statsBlob { return nd.pending[1] }},
		{"next", epoch + 1, func() *statsBlob { return nd.nextPend[1] }},
	}
	for _, tc := range cases {
		nd.mu.Lock()
		nd.pending[1], nd.nextPend[1] = nil, nil
		nd.mu.Unlock()
		if _, err := nd.Handle("node1", statsMsg(1, tc.epoch, blob)); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		nd.mu.Lock()
		got, pend, next := tc.landed(), nd.pending[1], nd.nextPend[1]
		nd.mu.Unlock()
		if got == nil && (pend != nil || next != nil) {
			t.Errorf("%s: epoch %d (node at %d) was accepted", tc.name, tc.epoch, epoch)
		}
		if got != nil && len(got.counters) != 1 {
			t.Errorf("%s: accepted blob mangled: %+v", tc.name, got)
		}
	}
}

// TestStaleClaimDoesNotMoveReplicas injects a stale-epoch stats
// broadcast whose placement claim would hand partition ownership to
// the sender, then ticks: the claim must not change the receiver's
// view (the epoch window already discarded it).
func TestStaleClaimDoesNotMoveReplicas(t *testing.T) {
	base := testConfig()
	h := newHarness(t, "loopback", 3, base)
	gen := h.zipf(base)
	for e := 0; e < 3; e++ {
		h.replay(gen.Epoch(e))
		h.tick()
	}
	nd := h.nodes[0]
	before := nd.ReplicaMap()

	// Pick a partition node 1 does not primary and forge a stale claim
	// asserting node 1 as its sole holder.
	victim := -1
	for p, prim := range nd.Primaries() {
		if prim != 1 {
			victim = p
			break
		}
	}
	if victim < 0 {
		t.Fatal("node 1 primaries everything; widen the config")
	}
	forged := &statsBlob{claims: []placementClaim{{partition: victim, primary: 1, replicas: []int{1}}}}
	if _, err := nd.Handle("node1", statsMsg(1, nd.Epoch()-1, forged)); err != nil {
		t.Fatal(err)
	}
	h.replay(gen.Epoch(3))
	h.tick()
	after := nd.ReplicaMap()
	if !reflect.DeepEqual(before[victim], after[victim]) {
		t.Errorf("stale claim moved partition %d: %v -> %v", victim, before[victim], after[victim])
	}
	h.assertViewsAgree()
}

// oneChunkBegin is a whole one-chunk ship of partition p as its single
// message: a KindXferBegin that carries the chunk and marks the target
// resident.
func oneChunkBegin(p uint32, session uint64, entries ...durable.Entry) *transport.Message {
	return &transport.Message{
		Kind: KindXferBegin, Partition: p, Session: session,
		Value: appendXferBegin(nil, 1, true, false, entries),
	}
}

// TestReplayedStoreIsIdempotent delivers the same one-message ship (a
// begin carrying its only chunk) twice and asserts the second
// application changes nothing: same keys, same values, both answered
// complete, and no traffic counters charged — a duplicated transfer on
// a flaky network must not double-count anything.
func TestReplayedStoreIsIdempotent(t *testing.T) {
	h := newHarness(t, "loopback", 3, testConfig())
	nd := h.nodes[0]
	const p = 4
	nd.store.Part(p).Drop()
	msg := oneChunkBegin(p, 0x5107E,
		durable.Entry{Key: "a", Val: []byte("1"), Ver: 3}, durable.Entry{Key: "b", Val: []byte("2"), Ver: 4})

	apply := func() (int, []byte) {
		t.Helper()
		resp, err := nd.Handle("node1", msg)
		if err != nil || resp.Status != transport.StatusOK || resp.Cursor != xferComplete {
			t.Fatalf("one-message ship did not complete: resp=%+v err=%v", resp, err)
		}
		va, _, _, _ := nd.store.Part(p).Get("a")
		return nd.store.Part(p).Stats().Keys, append([]byte(nil), va...)
	}
	k1, v1 := apply()
	k2, v2 := apply()
	if k1 != 2 || k2 != 2 || string(v1) != "1" || string(v2) != "1" {
		t.Errorf("replayed one-message ship not idempotent: keys %d/%d values %q/%q", k1, k2, v1, v2)
	}
	if !nd.store.Part(p).Stats().Resident {
		t.Error("a completed full ship left the target non-resident")
	}
	nd.mu.Lock()
	flushed := nd.store.flushCounters()
	nd.mu.Unlock()
	if len(flushed) != 0 {
		t.Errorf("transfer charged traffic counters: %+v", flushed)
	}
}

// TestReplayedStoreDoesNotRollBack delivers a one-message ship, applies
// a newer versioned sync on top, then replays the original begin, and
// finally delivers the same stale chunk under a fresh session id: the
// replay is answered from the done-list and the fresh session merges
// version-gated, so neither rolls the key back to the older version.
func TestReplayedStoreDoesNotRollBack(t *testing.T) {
	h := newHarness(t, "loopback", 3, testConfig())
	nd := h.nodes[0]
	const p = 4
	old := durable.Entry{Key: "a", Val: []byte("old"), Ver: 3}
	if _, err := nd.Handle("node1", oneChunkBegin(p, 0xB0, old)); err != nil {
		t.Fatal(err)
	}
	if !nd.store.Part(p).ApplySync("a", []byte("new"), 9) {
		t.Fatal("sync refused on a resident partition")
	}
	for _, sid := range []uint64{0xB0, 0xB1} {
		if _, err := nd.Handle("node1", oneChunkBegin(p, sid, old)); err != nil {
			t.Fatal(err)
		}
		v, ver, _, _ := nd.store.Part(p).Get("a")
		if string(v) != "new" || ver != 9 {
			t.Errorf("session %#x rolled key back: got (%q, %d), want (\"new\", 9)", sid, v, ver)
		}
	}
}

// TestStaleSyncAfterDropDoesNotResurrect pins the drop/sync race: a
// KindSync delayed across the epoch in which the same partition was
// dropped here must not resurrect records in the now non-resident
// partition — its content is someone else's responsibility until a
// snapshot makes it authoritative again. The refusal must also be
// visible to the sender (StatusRetry), so a quorum write never counts
// a non-resident holder as durable.
func TestStaleSyncAfterDropDoesNotResurrect(t *testing.T) {
	base := testConfig()
	h := newHarness(t, "loopback", 3, base)
	gen := h.zipf(base)
	for e := 0; e < 3; e++ {
		h.replay(gen.Epoch(e))
		h.tick()
	}
	// Find a node that holds some partition without leading it — the
	// only shape a legitimate drop targets.
	var nd *Node
	p := -1
	for _, cand := range h.nodes {
		for q := 0; q < base.Partitions; q++ {
			cand.mu.RLock()
			holds := cand.view.hasReplica(q, cand.self)
			prim := cand.view.primary(q)
			cand.mu.RUnlock()
			if holds && prim != cand.self {
				nd, p = cand, q
				break
			}
		}
		if nd != nil {
			break
		}
	}
	if nd == nil {
		t.Fatal("no non-primary holder found; widen the config")
	}
	key := PartitionKey(p, base.Partitions)
	if !nd.store.Part(p).ApplySync(key, []byte("live"), 5) {
		t.Fatal("seed sync refused")
	}
	if _, err := nd.Handle("peer", &transport.Message{Kind: KindDrop, Partition: uint32(p)}); err != nil {
		t.Fatal(err)
	}
	resp, err := nd.Handle("peer", &transport.Message{
		Kind: KindSync, Partition: uint32(p), Version: 6, Key: []byte(key), Value: []byte("ghost"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != transport.StatusRetry {
		t.Errorf("stale sync on dropped partition answered status %d, want StatusRetry", resp.Status)
	}
	if v, _, ok, _ := nd.store.Part(p).Get(key); ok {
		t.Errorf("stale sync resurrected dropped partition %d: key %q = %q", p, key, v)
	}
}

// TestReplayedClaimIsIdempotent applies the same placement claim twice
// in one epoch window and asserts the holder set neither grows nor
// accumulates duplicates.
func TestReplayedClaimIsIdempotent(t *testing.T) {
	base := testConfig()
	h := newHarness(t, "loopback", 3, base)
	gen := h.zipf(base)
	for e := 0; e < 3; e++ {
		h.replay(gen.Epoch(e))
		h.tick()
	}
	nd := h.nodes[0]
	// Replay node 1's genuine current claims twice on top of the live
	// exchange: FlushEpoch already delivered them once, these add two
	// more applications of the same statement.
	h.nodes[1].mu.Lock()
	var claims []placementClaim
	for p := 0; p < base.Partitions; p++ {
		if h.nodes[1].view.primary(p) != 1 {
			continue
		}
		cl := placementClaim{partition: p, primary: 1}
		for _, s := range h.nodes[1].view.cluster.ReplicaServers(p) {
			cl.replicas = append(cl.replicas, int(s))
		}
		claims = append(claims, cl)
	}
	h.nodes[1].mu.Unlock()
	if len(claims) == 0 {
		t.Skip("node 1 primaries nothing at this seed")
	}
	before := nd.ReplicaMap()
	for i := 0; i < 2; i++ {
		nd.mu.Lock()
		for j := range claims {
			nd.applyClaimLocked(&claims[j])
		}
		nd.mu.Unlock()
	}
	after := nd.ReplicaMap()
	if !reflect.DeepEqual(before, after) {
		t.Errorf("double-applied claims changed the view: %v -> %v", before, after)
	}
	for p, replicas := range after {
		seen := make(map[int]bool)
		for _, s := range replicas {
			if seen[s] {
				t.Errorf("partition %d lists holder %d twice", p, s)
			}
			seen[s] = true
		}
	}
}

// TestCrashedNodeRefusesOperations pins the crash-window API contract:
// every operation fails with ErrCrashed (not ErrClosed) until Restart.
func TestCrashedNodeRefusesOperations(t *testing.T) {
	f, err := NewFleet(3, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Tick(); err != nil {
		t.Fatal(err)
	}
	f.Crash(1)
	nd := f.nodes[1]
	if !nd.Crashed() {
		t.Fatal("Crashed() false after Crash")
	}
	if _, _, err := nd.Get("k"); !errors.Is(err, ErrCrashed) {
		t.Errorf("Get on crashed node: %v", err)
	}
	if err := nd.Put("k", []byte("v")); !errors.Is(err, ErrCrashed) {
		t.Errorf("Put on crashed node: %v", err)
	}
	if err := nd.FlushEpoch(); !errors.Is(err, ErrCrashed) {
		t.Errorf("FlushEpoch on crashed node: %v", err)
	}
	if err := nd.RunEpoch(); !errors.Is(err, ErrCrashed) {
		t.Errorf("RunEpoch on crashed node: %v", err)
	}
	if _, err := nd.Handle("node0", &transport.Message{Kind: KindPing}); !errors.Is(err, ErrCrashed) {
		t.Errorf("Handle on crashed node: %v", err)
	}
	if _, ok := nd.LocalGet("k"); ok {
		t.Error("LocalGet returned data from a crashed store")
	}
	// Restart of a live node must be refused.
	if err := f.nodes[0].Restart(0); err == nil {
		t.Error("Restart of a non-crashed node succeeded")
	}
}

// TestCrashAndRestartRejoins extends the kill-one-node scenario to a
// full crash/restart cycle: the victim loses its store and placement
// view, the survivors re-replicate around it, and the rejoining node
// must re-learn the placement from its peers' claims and re-acquire
// partitions — without ever pushing a partition's holder count above
// the live-node ceiling and without asserting its pre-crash view.
func TestCrashAndRestartRejoins(t *testing.T) {
	base := testConfig()
	f, err := NewFleet(3, base)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	gen := fleetZipf(t, base, 3)

	tick := func(e int) {
		t.Helper()
		f.Replay(gen.Epoch(e))
		if err := f.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	for e := 0; e < 5; e++ {
		tick(e)
	}
	const victim = 2
	key := PartitionKey(0, base.Partitions)
	if err := f.Node(0).Put(key, []byte("survives")); err != nil {
		t.Fatal(err)
	}
	f.Crash(victim)
	if f.Node(victim) != nil || f.NumAlive() != 2 {
		t.Fatal("crashed node still listed alive")
	}
	// Survivors suspect the victim and restore the availability bound.
	for e := 5; e < 5+base.SuspectAfter+3; e++ {
		tick(e)
	}
	if err := f.Restart(victim); err != nil {
		t.Fatal(err)
	}
	//lint:ignore rfhlint/closecheck Node borrows the fleet's slot; f.Close owns shutdown
	nd := f.Node(victim)
	if nd == nil || !nd.Recovering() {
		t.Fatal("restarted node not in recovering state")
	}
	// The fresh process rejoined with an empty store and an empty view.
	if _, ok := nd.LocalGet(key); ok {
		t.Error("restarted node kept pre-crash data")
	}
	for p := 0; p < base.Partitions; p++ {
		if nd.ReplicaCount(p) != 0 {
			t.Fatalf("restarted node's view has placement before any claims (partition %d)", p)
		}
	}
	// Re-learning the placement takes one claim exchange; full
	// re-acquisition a few policy epochs more. The ceiling invariant
	// must hold at every step.
	ceiling := len(f.nodes)
	for e := 10; e < 20; e++ {
		tick(e)
		for p := 0; p < base.Partitions; p++ {
			if got := f.Node(0).ReplicaCount(p); got > ceiling {
				t.Fatalf("epoch %d: partition %d has %d holders, ceiling %d", e, p, got, ceiling)
			}
		}
	}
	if nd.Recovering() {
		t.Fatal("node still recovering after 10 post-restart epochs")
	}
	// The rejoined node re-acquired real placements and the fleet's
	// views agree again.
	holds := 0
	for p := 0; p < base.Partitions; p++ {
		if got := nd.ReplicaCount(p); got < nd.MinReplicas() {
			t.Errorf("partition %d has %d replicas after rejoin, want >= %d", p, got, nd.MinReplicas())
		}
		refMap := f.Node(0).ReplicaMap()
		for _, s := range refMap[p] {
			if s == victim {
				holds++
				break
			}
		}
	}
	if holds == 0 {
		t.Error("rejoined node never re-acquired a partition")
	}
	if !reflect.DeepEqual(f.Node(0).ReplicaMap(), nd.ReplicaMap()) {
		t.Errorf("views diverge after rejoin:\n node0: %v\n node%d: %v",
			f.Node(0).ReplicaMap(), victim, nd.ReplicaMap())
	}
	if !reflect.DeepEqual(f.Node(0).Primaries(), nd.Primaries()) {
		t.Errorf("primaries diverge after rejoin")
	}
	// The pre-crash acked write is still served by the survivors.
	if v, ok, err := f.Node(0).Get(key); err != nil || !ok || string(v) != "survives" {
		t.Errorf("acked write lost across crash/restart: v=%q ok=%v err=%v", v, ok, err)
	}
}
