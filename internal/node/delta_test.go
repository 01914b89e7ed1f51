package node

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/durable"
	"repro/internal/transport"
)

// --- Wire round-trips for the delta-replication frames ----------------

func TestXferInfoRoundTrip(t *testing.T) {
	leaves := make([]uint64, aeTop)
	for i := range leaves {
		leaves[i] = uint64(i) ^ 0xA5A5
	}
	got, root, err := decodeXferInfo(appendXferInfo(nil, leaves, 42))
	if err != nil || root != 42 || !reflect.DeepEqual(got, leaves) {
		t.Fatalf("digest round-trip: root=%d leaves=%d err=%v", root, len(got), err)
	}
	// A target holding nothing answers one byte and decodes as nil
	// leaves: every bucket empty.
	enc := appendXferInfo(nil, nil, 0)
	if got, _, err := decodeXferInfo(enc); err != nil || got != nil || len(enc) != 1 {
		t.Fatalf("empty-content info (%d bytes): leaves=%v err=%v", len(enc), got, err)
	}
}

func TestDecodeXferInfoRejectsCorrupt(t *testing.T) {
	good := appendXferInfo(nil, make([]uint64, aeTop), 1)
	cases := map[string][]byte{
		"empty":          {},
		"unknown flags":  {7},
		"missing digest": {1},
		"narrow digest":  appendXferInfo(nil, make([]uint64, aeTop-1), 1),
		"truncated leaf": good[:len(good)-9],
		"missing root":   good[:len(good)-8],
		"trailing":       append(append([]byte{}, good...), 0),
		"count bomb":     binary.AppendUvarint([]byte{1}, 1<<20),
	}
	for name, buf := range cases {
		if _, _, err := decodeXferInfo(buf); err == nil {
			t.Errorf("%s: corrupt transfer info accepted", name)
		}
	}
}

func TestXferWantRoundTrip(t *testing.T) {
	for _, want := range [][]int{{}, {0}, {0, 1, 2}, {3, 200, 4095}} {
		got, err := decodeXferWant(appendXferWant(nil, want), 4096)
		if err != nil || !slices.Equal(got, want) {
			t.Fatalf("want %v round-tripped to %v err=%v", want, got, err)
		}
	}
	for name, c := range map[string]struct {
		buf []byte
		n   int
	}{
		"past the offer":  {appendXferWant(nil, []int{5}), 5},
		"second past":     {appendXferWant(nil, []int{3, 4}), 4},
		"count bomb":      {binary.AppendUvarint(nil, 1<<20), 1 << 30},
		"trailing":        {append(appendXferWant(nil, []int{1}), 0), 8},
		"truncated count": {appendXferWant(nil, []int{1, 2})[:2], 8},
	} {
		if _, err := decodeXferWant(c.buf, c.n); err == nil {
			t.Errorf("%s: corrupt want list accepted", name)
		}
	}
}

func TestStatsBlobDigestsRoundTrip(t *testing.T) {
	in := &statsBlob{
		counters: []partitionCounters{{partition: 1, origin: 2}},
		claims:   []placementClaim{{partition: 1, primary: 0, replicas: []int{0, 2}}},
		roots:    []aeRoot{{partition: 1, root: 77}, {partition: 5, root: 0}, {partition: 7, root: 1<<64 - 1}},
	}
	out, err := decodeStats(appendStats(nil, in), 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in  %+v\n out %+v", in, out)
	}
	// Corrupt root sections must be rejected, not truncated.
	good := appendStats(nil, in)
	for name, buf := range map[string][]byte{
		"truncated root":      good[:len(good)-3],
		"trailing":            append(append([]byte{}, good...), 9),
		"count bomb":          binary.AppendUvarint([]byte{0, 0}, 1<<20),
		"partition too large": binary.BigEndian.AppendUint64([]byte{0, 0, 1, 8}, 1),
	} {
		if _, err := decodeStats(buf, 8, 3); err == nil {
			t.Errorf("%s: corrupt stats roots accepted", name)
		}
	}
}

// --- Delta transfer planning ------------------------------------------

// TestDeltaTransferToResidentTarget pins the tentpole: re-migrating a
// partition to a target that already holds it ships only the entries
// above the target's watermark, never the whole snapshot again — and a
// delta session does not (re)mark residency.
func TestDeltaTransferToResidentTarget(t *testing.T) {
	h := newHarness(t, "loopback", 3, transferTestConfig())
	src, dst := h.nodes[0], h.nodes[1]
	const p = 2
	entries := seedPartition(t, src, p, 8)
	dst.store.Part(p).Drop()

	if !src.TransferPartition(p, 1) {
		t.Fatal("initial full transfer did not complete")
	}
	st := src.TransferStats()
	if st.FullSessions != 1 || st.DeltaSessions != 0 {
		t.Fatalf("after full transfer: stats %+v, want one full and no delta sessions", st)
	}
	base := st.ChunksSent

	// Diverge by two fresh keys above the shipped watermark.
	fresh := []durable.Entry{
		{Key: "delta-a", Ver: 100, Val: []byte("da")},
		{Key: "delta-b", Ver: 101, Val: []byte("db")},
	}
	if err := src.store.Part(p).MergeSnapshot(fresh); err != nil {
		t.Fatal(err)
	}
	if !src.TransferPartition(p, 1) {
		t.Fatal("delta transfer did not complete")
	}
	st = src.TransferStats()
	if st.DeltaSessions != 1 {
		t.Fatalf("stats %+v, want exactly one delta session", st)
	}
	if got := st.ChunksSent - base; got != int64(len(fresh)) {
		t.Errorf("delta shipped %d chunks, want %d (only the fresh keys)", got, len(fresh))
	}
	if st.BytesSaved == 0 {
		t.Error("delta session saved no bytes")
	}
	if !dst.store.Part(p).Stats().Resident {
		t.Error("target lost residency across a delta session")
	}
	for _, e := range append(entries, fresh...) {
		if v, ver, ok, _ := dst.store.Part(p).Get(e.Key); !ok || string(v) != string(e.Val) || ver != e.Ver {
			t.Errorf("key %q after delta: val=%q ver=%d ok=%v, want %q/%d", e.Key, v, ver, ok, e.Val, e.Ver)
		}
	}
}

// TestStaleWatermarkFallsBackToFull pins the soundness rule: a
// resident target whose watermark is inflated past its actual content
// (here: an empty shard claiming version 50) must still receive
// everything — the digest comparison dirties the missing entries'
// buckets, so nothing below the watermark is skipped.
func TestStaleWatermarkFallsBackToFull(t *testing.T) {
	h := newHarness(t, "loopback", 3, transferTestConfig())
	src, dst := h.nodes[0], h.nodes[1]
	const p = 3
	entries := seedPartition(t, src, p, 6)

	// The target is resident-empty (the store default) with a watermark
	// asserting coverage it does not have: an earlier session's begin
	// adopted the source's maxVer and then delivered nothing.
	if _, _, err := dst.store.Part(p).BeginInbound(1, 0, false, 50, false); err != nil {
		t.Fatal(err)
	}

	if !src.TransferPartition(p, 1) {
		t.Fatal("transfer against stale watermark did not complete")
	}
	st := src.TransferStats()
	if st.FullSessions != 1 || st.DeltaSessions != 0 {
		t.Fatalf("stats %+v, want a full session (every bucket diverges)", st)
	}
	if st.ChunksSent != int64(len(entries)) {
		t.Errorf("shipped %d chunks, want %d — the inflated watermark must not skip entries", st.ChunksSent, len(entries))
	}
	for _, e := range entries {
		if _, _, ok, _ := dst.store.Part(p).Get(e.Key); !ok {
			t.Errorf("key %q missing after stale-watermark transfer", e.Key)
		}
	}
}

// TestDeltaBucketFilteredRepairsHole pins the middle plan outcome: a
// resident target missing one below-watermark key gets exactly that
// key's bucket re-shipped, not the whole partition.
func TestDeltaBucketFilteredRepairsHole(t *testing.T) {
	h := newHarness(t, "loopback", 3, transferTestConfig())
	src, dst := h.nodes[0], h.nodes[1]
	const p = 4

	// Three keys in three distinct top-level buckets.
	var keys []string
	used := map[int]bool{}
	for i := 0; len(keys) < 3; i++ {
		k := fmt.Sprintf("hole-%d", i)
		if b := aeBucket(k); !used[b] {
			used[b] = true
			keys = append(keys, k)
		}
	}
	entries := []durable.Entry{
		{Key: keys[0], Ver: 1, Val: []byte("v0")},
		{Key: keys[1], Ver: 2, Val: []byte("v1")},
		{Key: keys[2], Ver: 3, Val: []byte("v2")},
	}
	if err := src.store.Part(p).MergeSnapshot(entries); err != nil {
		t.Fatal(err)
	}
	// The target holds two of the three and a watermark covering all.
	if err := dst.store.Part(p).MergeSnapshot(entries[:2]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := dst.store.Part(p).BeginInbound(1, 0, false, 3, false); err != nil {
		t.Fatal(err)
	}

	if !src.TransferPartition(p, 1) {
		t.Fatal("bucket-filtered transfer did not complete")
	}
	st := src.TransferStats()
	if st.DeltaSessions != 1 {
		t.Fatalf("stats %+v, want one delta session", st)
	}
	if st.ChunksSent != 1 {
		t.Errorf("shipped %d chunks, want 1 (only the hole's bucket)", st.ChunksSent)
	}
	if st.BytesSaved == 0 {
		t.Error("bucket-filtered plan saved no bytes")
	}
	for _, e := range entries {
		if _, _, ok, _ := dst.store.Part(p).Get(e.Key); !ok {
			t.Errorf("key %q missing after bucket-filtered transfer", e.Key)
		}
	}
}

// --- Key-exact planning against what the target physically holds ------

// planFleet is a 3-node memory fleet with one entry per chunk, so
// ChunksSent counts shipped entries. Node 0 records the kinds it sends
// and runs hook (when set) on each request before delivering it.
type planFleet struct {
	*Fleet
	sent []uint8
	hook func(m *transport.Message)
}

func newPlanFleet(t *testing.T) *planFleet {
	t.Helper()
	pf := &planFleet{}
	f, err := NewFleetWrapped(3, transferTestConfig(), func(i int, tr transport.Transport) transport.Transport {
		if i != 0 {
			return tr
		}
		return transport.NewFault(tr, func(from, to string, m *transport.Message) transport.FaultAction {
			pf.sent = append(pf.sent, m.Kind)
			if pf.hook != nil {
				pf.hook(m)
			}
			return transport.FaultDeliver
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	pf.Fleet = f
	return pf
}

// planEntries is n records "<prefix>-i" at versions 1..n — enough keys
// that nearly every top bucket is populated, so holes sit in buckets
// both sides hold and must go through the offer round.
func planEntries(prefix string, n int) []durable.Entry {
	entries := make([]durable.Entry, n)
	for i := range entries {
		entries[i] = durable.Entry{Key: fmt.Sprintf("%s-%03d", prefix, i), Ver: uint64(i + 1), Val: []byte(fmt.Sprintf("v%d", i))}
	}
	return entries
}

// without returns entries minus the indexes in drop.
func without(entries []durable.Entry, drop ...int) []durable.Entry {
	var out []durable.Entry
	for i, e := range entries {
		if !slices.Contains(drop, i) {
			out = append(out, e)
		}
	}
	return out
}

// fullShip is what a full snapshot of src landing on a copy holding
// base leaves behind: the reference a key-exact plan must match.
func fullShip(t *testing.T, base, src []durable.Entry) []durable.Entry {
	t.Helper()
	eng, err := durable.Open(durable.Options{Partitions: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ref := eng.Part(0)
	if err := ref.MergeSnapshot(base); err != nil {
		t.Fatal(err)
	}
	if err := ref.MergeSnapshot(src); err != nil {
		t.Fatal(err)
	}
	return ref.State().Entries
}

func sameEntries(t *testing.T, what string, got, want []durable.Entry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i].Key != want[i].Key || got[i].Ver != want[i].Ver || string(got[i].Val) != string(want[i].Val) {
			t.Fatalf("%s: entry %d = %s@%d, want %s@%d", what, i, got[i].Key, got[i].Ver, want[i].Key, want[i].Ver)
		}
	}
}

// TestRevokedCopyReceivesOnlyWhatItLacks: re-replication onto a copy a
// restarted node kept (non-resident) ships exactly the k entries it
// lacks — two overwritten above its watermark, three holes below it in
// buckets it populates, settled by the offer round — ends resident, and
// leaves the same content a full ship would.
func TestRevokedCopyReceivesOnlyWhatItLacks(t *testing.T) {
	pf := newPlanFleet(t)
	//lint:ignore rfhlint/closecheck Node borrows the fleet's slot; f.Close owns shutdown
	src, dst := pf.Node(0), pf.Node(1)
	const p = 5
	entries := planEntries("rv", 300)
	base := without(entries, 17, 140, 222)
	if err := dst.store.Part(p).MergeSnapshot(base); err != nil {
		t.Fatal(err)
	}
	if err := dst.store.Part(p).Revoke(); err != nil {
		t.Fatal(err)
	}
	entries[30].Ver, entries[30].Val = 1000, []byte("newer-30")
	entries[250].Ver, entries[250].Val = 1001, []byte("newer-250")
	if err := src.store.Part(p).MergeSnapshot(entries); err != nil {
		t.Fatal(err)
	}

	if !src.TransferPartition(p, 1) {
		t.Fatal("re-replication onto the revoked copy did not complete")
	}
	st := src.TransferStats()
	if st.ChunksSent != 5 || st.DeltaSessions != 1 {
		t.Errorf("stats %+v, want one delta session shipping exactly the 5 entries the copy lacks", st)
	}
	if !slices.Contains(pf.sent, KindXferOffer) {
		t.Errorf("request kinds %v: the holes below the watermark were not settled by an offer round", pf.sent)
	}
	if !dst.store.Part(p).Stats().Resident {
		t.Error("target not resident after the session it was opened to mark")
	}
	sameEntries(t, "revoked copy after the delta", dst.store.Part(p).State().Entries, fullShip(t, base, entries))
}

// TestStaleRejoinerShipsNothingHoldersHave: rejoin re-injection from a
// copy older than the holder's ships no entries — every bucket where
// they differ is one the holder holds newer — yet a key only the
// rejoiner holds, below the holder's watermark, still ships and lands.
func TestStaleRejoinerShipsNothingHoldersHave(t *testing.T) {
	pf := newPlanFleet(t)
	//lint:ignore rfhlint/closecheck Node borrows the fleet's slot; f.Close owns shutdown
	src, dst := pf.Node(0), pf.Node(1)
	const p = 6
	stale := planEntries("rj", 300)
	current := planEntries("rj", 300)
	for i := 0; i < 30; i++ {
		current[i*10].Ver, current[i*10].Val = uint64(400+i), []byte("current")
	}
	if err := dst.store.Part(p).MergeSnapshot(current); err != nil {
		t.Fatal(err)
	}
	if err := src.store.Part(p).MergeSnapshot(stale); err != nil {
		t.Fatal(err)
	}
	if err := src.store.Part(p).Revoke(); err != nil {
		t.Fatal(err)
	}
	reinject := func() {
		t.Helper()
		src.mu.RLock()
		s := src.startTransferLocked(p, 1, false)
		src.mu.RUnlock()
		if !src.pumpSession(s) {
			t.Fatal("re-injection session did not complete")
		}
	}

	reinject()
	if st := src.TransferStats(); st.ChunksSent != 0 {
		t.Errorf("stale rejoiner shipped %d entries to a current holder, want 0 (stats %+v)", st.ChunksSent, st)
	}
	sameEntries(t, "holder after a stale re-injection", dst.store.Part(p).State().Entries, current)

	// A write only the rejoiner acked before it crashed: its version is
	// below the holder's watermark, in a bucket the holder populates.
	only := durable.Entry{Key: "rj-only", Ver: 150, Val: []byte("only-here")}
	if err := src.store.Part(p).MergeSnapshot([]durable.Entry{only}); err != nil {
		t.Fatal(err)
	}
	reinject()
	if st := src.TransferStats(); st.ChunksSent != 1 {
		t.Errorf("re-injection shipped %d entries, want exactly the rejoiner's own key (stats %+v)", st.ChunksSent, st)
	}
	if v, ver, ok, resident := dst.store.Part(p).Get(only.Key); !ok || ver != only.Ver || string(v) != string(only.Val) || !resident {
		t.Errorf("rejoiner's key at the holder = (%q, %d, %v, resident %v), want (%q, %d)", v, ver, ok, resident, only.Val, only.Ver)
	}
	sameEntries(t, "holder after re-injecting the rejoiner's key", dst.store.Part(p).State().Entries, fullShip(t, current, append(stale, only)))
}

// TestDeltaReplansWhenTargetLosesContent: a marking delta whose target
// loses the content it was planned against — dropped between probe and
// begin, dropped mid-session, or memory-crashed and restarted
// mid-session — plans again from a fresh probe and ends with the
// target resident and holding everything.
func TestDeltaReplansWhenTargetLosesContent(t *testing.T) {
	const p = 7
	dropAt := func(pf *planFleet, kind uint8, chunk uint64, lose func()) {
		fired := false
		pf.hook = func(m *transport.Message) {
			if !fired && m.Kind == kind && m.Partition == p && m.Cursor == chunk {
				fired = true
				lose()
			}
		}
	}
	for _, tc := range []struct {
		name string
		arm  func(pf *planFleet)
	}{
		{"dropped between probe and begin", func(pf *planFleet) {
			dropAt(pf, KindXferBegin, 0, func() { pf.Node(1).store.Part(p).Drop() })
		}},
		{"dropped mid-session", func(pf *planFleet) {
			dropAt(pf, KindXferChunk, 1, func() { pf.Node(1).store.Part(p).Drop() })
		}},
		{"memory crash mid-session", func(pf *planFleet) {
			dropAt(pf, KindXferChunk, 1, func() {
				pf.Crash(1)
				if err := pf.Restart(1); err != nil {
					t.Fatal(err)
				}
			})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pf := newPlanFleet(t)
			//lint:ignore rfhlint/closecheck Node borrows the fleet's slot; f.Close owns shutdown
			src, dst := pf.Node(0), pf.Node(1)
			entries := planEntries("lost", 300)
			if err := dst.store.Part(p).MergeSnapshot(without(entries, 3, 100, 200, 299)); err != nil {
				t.Fatal(err)
			}
			if err := dst.store.Part(p).Revoke(); err != nil {
				t.Fatal(err)
			}
			if err := src.store.Part(p).MergeSnapshot(entries); err != nil {
				t.Fatal(err)
			}
			tc.arm(pf)
			if !src.TransferPartition(p, 1) {
				t.Fatal("session did not complete after the target lost its content")
			}
			st := src.TransferStats()
			if st.DeltaSessions != 1 || st.FullSessions != 1 {
				t.Errorf("stats %+v, want the delta plan and then a full re-plan", st)
			}
			if !dst.store.Part(p).Stats().Resident {
				t.Error("target not resident after the re-planned session")
			}
			sameEntries(t, "target after the re-planned session", dst.store.Part(p).State().Entries, entries)
		})
	}
}

// TestInflatedWatermarkStillShipsHoles: a non-resident copy whose
// watermark claims every source version (an earlier begin adopted it
// and then delivered nothing) still receives each key it lacks: any
// record the watermark falsely claims dirties its bucket.
func TestInflatedWatermarkStillShipsHoles(t *testing.T) {
	pf := newPlanFleet(t)
	//lint:ignore rfhlint/closecheck Node borrows the fleet's slot; f.Close owns shutdown
	src, dst := pf.Node(0), pf.Node(1)
	const p = 8
	entries := planEntries("wm", 300)
	part := dst.store.Part(p)
	if err := part.MergeSnapshot(entries[:200]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := part.BeginInbound(1, 2, true, 10_000, false); err != nil {
		t.Fatal(err)
	}
	if err := part.Revoke(); err != nil {
		t.Fatal(err)
	}
	if err := src.store.Part(p).MergeSnapshot(entries); err != nil {
		t.Fatal(err)
	}
	if !src.TransferPartition(p, 1) {
		t.Fatal("transfer onto the inflated-watermark copy did not complete")
	}
	if st := src.TransferStats(); st.ChunksSent != 100 {
		t.Errorf("shipped %d entries, want the 100 holes (stats %+v)", st.ChunksSent, st)
	}
	if !part.Stats().Resident {
		t.Error("target not resident after the session")
	}
	sameEntries(t, "inflated-watermark copy after the session", part.State().Entries, entries)
}
