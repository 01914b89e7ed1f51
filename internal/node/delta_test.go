package node

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/durable"
)

// --- Wire round-trips for the delta-replication frames ----------------

func TestXferInfoRoundTrip(t *testing.T) {
	leaves := make([]uint64, aeTop)
	for i := range leaves {
		leaves[i] = uint64(i) ^ 0xA5A5
	}
	enc := appendXferInfo(nil, true, leaves, 42)
	resident, got, root, err := decodeXferInfo(enc)
	if err != nil || !resident || root != 42 || len(got) != aeTop {
		t.Fatalf("resident info round-trip: resident=%v root=%d leaves=%d err=%v", resident, root, len(got), err)
	}
	for i := range leaves {
		if got[i] != leaves[i] {
			t.Fatalf("leaf %d round-tripped to %x, want %x", i, got[i], leaves[i])
		}
	}
	resident, got, _, err = decodeXferInfo(appendXferInfo(nil, false, nil, 0))
	if err != nil || resident || got != nil {
		t.Fatalf("non-resident info round-trip: resident=%v leaves=%v err=%v", resident, got, err)
	}
	// An empty blob decodes as "no info" — old-style replies degrade to
	// a full transfer instead of erroring.
	if resident, _, _, err := decodeXferInfo(nil); err != nil || resident {
		t.Fatalf("empty info: resident=%v err=%v", resident, err)
	}
	// A resident digest with an empty leaf vector is well-formed too; the
	// planner, not the decoder, rejects a shape that is not aeTop wide.
	if resident, got, root, err := decodeXferInfo(appendXferInfo(nil, true, nil, 7)); err != nil || !resident || len(got) != 0 || root != 7 {
		t.Fatalf("empty digest: resident=%v leaves=%v root=%d err=%v", resident, got, root, err)
	}
}

func TestDecodeXferInfoRejectsCorrupt(t *testing.T) {
	good := appendXferInfo(nil, true, make([]uint64, aeTop), 1)
	cases := map[string][]byte{
		"unknown flags":  {7},
		"missing digest": {1},
		"truncated leaf": good[:len(good)-9],
		"missing root":   good[:len(good)-8],
		"trailing":       append(append([]byte{}, good...), 0),
		"count bomb":     binary.AppendUvarint([]byte{1}, 1<<20),
	}
	for name, buf := range cases {
		if _, _, _, err := decodeXferInfo(buf); err == nil {
			t.Errorf("%s: corrupt transfer info accepted", name)
		}
	}
}

func TestAESubRoundTrip(t *testing.T) {
	tops := []int{0, 5, aeTop - 1}
	subs := make([][]uint64, len(tops))
	for i := range subs {
		subs[i] = make([]uint64, aeFanout)
		for j := range subs[i] {
			subs[i][j] = uint64(i*aeFanout+j) * 0x9E3779B97F4A7C15
		}
	}
	gt, gs, err := decodeAESub(appendAESub(nil, tops, subs))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gt, tops) || !reflect.DeepEqual(gs, subs) {
		t.Fatalf("round trip mismatch: tops %v subs[0][0]=%x", gt, gs[0][0])
	}
	if gt, gs, err := decodeAESub(appendAESub(nil, nil, nil)); err != nil || len(gt) != 0 || len(gs) != 0 {
		t.Fatalf("empty sub request: %v %v %v", gt, gs, err)
	}
}

func TestDecodeAESubRejectsCorrupt(t *testing.T) {
	good := appendAESub(nil, []int{1}, [][]uint64{make([]uint64, aeFanout)})
	cases := map[string][]byte{
		"truncated leaves": good[:len(good)-1],
		"trailing":         append(append([]byte{}, good...), 0),
		"bucket too large": binary.AppendUvarint(binary.AppendUvarint(nil, 1), aeTop),
		"count bomb":       binary.AppendUvarint(nil, 1<<20),
	}
	for name, buf := range cases {
		if _, _, err := decodeAESub(buf); err == nil {
			t.Errorf("%s: corrupt AE sub-digest accepted", name)
		}
	}
}

func TestAEKeylistsRoundTrip(t *testing.T) {
	subIdx := []int{3, 700, aeSubCount - 1}
	lists := [][]aeKeyVer{
		{{key: "a", ver: 1}, {key: "bb", ver: 1 << 40}},
		{}, // empty list still rides: "primary has nothing here"
		{{key: "", ver: 0}},
	}
	gi, gl, err := decodeAEKeylists(appendAEKeylists(nil, subIdx, lists))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gi, subIdx) {
		t.Fatalf("sub indexes round-tripped to %v", gi)
	}
	if len(gl) != len(lists) || len(gl[0]) != 2 || len(gl[1]) != 0 || len(gl[2]) != 1 {
		t.Fatalf("lists round-tripped to %v", gl)
	}
	if gl[0][1] != (aeKeyVer{key: "bb", ver: 1 << 40}) {
		t.Fatalf("pair round-tripped to %+v", gl[0][1])
	}
}

func TestDecodeAEKeylistsRejectsCorrupt(t *testing.T) {
	good := appendAEKeylists(nil, []int{2}, [][]aeKeyVer{{{key: "k", ver: 9}}})
	cases := map[string][]byte{
		"truncated ver":  good[:len(good)-1],
		"trailing":       append(append([]byte{}, good...), 0),
		"sub too large":  binary.AppendUvarint(binary.AppendUvarint(nil, 1), aeSubCount),
		"key bomb":       {1, 2, 1, 0xFF},
		"count bomb":     binary.AppendUvarint(nil, 1<<40),
		"missing counts": {5},
	}
	for name, buf := range cases {
		if _, _, err := decodeAEKeylists(buf); err == nil {
			t.Errorf("%s: corrupt AE keylists accepted", name)
		}
	}
}

func TestAEKeysRoundTrip(t *testing.T) {
	keys := []string{"", "k", "a-much-longer-key"}
	got, err := decodeAEKeys(appendAEKeys(nil, keys))
	if err != nil || !reflect.DeepEqual(got, keys) {
		t.Fatalf("round trip: %v err=%v", got, err)
	}
	if got, err := decodeAEKeys(appendAEKeys(nil, nil)); err != nil || len(got) != 0 {
		t.Fatalf("empty key list: %v err=%v", got, err)
	}
}

func TestDecodeAEKeysRejectsCorrupt(t *testing.T) {
	good := appendAEKeys(nil, []string{"key"})
	cases := map[string][]byte{
		"truncated key": good[:len(good)-1],
		"trailing":      append(append([]byte{}, good...), 0),
		"length bomb":   {1, 0xFF},
	}
	for name, buf := range cases {
		if _, err := decodeAEKeys(buf); err == nil {
			t.Errorf("%s: corrupt AE key list accepted", name)
		}
	}
}

func TestStatsBlobDigestsRoundTrip(t *testing.T) {
	leaves := make([]uint64, aeTop)
	for i := range leaves {
		leaves[i] = uint64(i + 1)
	}
	in := &statsBlob{
		counters: []partitionCounters{{partition: 1, origin: 2}},
		claims:   []placementClaim{{partition: 1, primary: 0, replicas: []int{0, 2}}},
		digests: []aePartitionDigest{
			{partition: 1, root: 77, leaves: leaves},
			{partition: 5, root: 0, leaves: make([]uint64, aeTop)},
		},
	}
	out, err := decodeStats(appendStats(nil, in), 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in  %+v\n out %+v", in, out)
	}
	// Corrupt digest sections must be rejected, not truncated.
	good := appendStats(nil, in)
	for name, buf := range map[string][]byte{
		"truncated digest": good[:len(good)-3],
		"trailing":         append(append([]byte{}, good...), 9),
	} {
		if _, err := decodeStats(buf, 8, 3); err == nil {
			t.Errorf("%s: corrupt stats digests accepted", name)
		}
	}
}

// --- Two-level tree localization --------------------------------------

// TestAETreeSubLocalization pins the hierarchical walk the pull
// protocol depends on: a single divergent record dirties exactly one
// top-level bucket, and within it exactly one sub-bucket — the one the
// key hashes to — so reconciliation narrows 4096 sub-buckets down to
// one in two digest comparisons.
func TestAETreeSubLocalization(t *testing.T) {
	a, b := NewAETree(), NewAETree()
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("k-%d", i)
		a.Apply(k, uint64(i+1), []byte("v"))
		b.Apply(k, uint64(i+1), []byte("v"))
	}
	if a.Root() != b.Root() {
		t.Fatal("identical record sets disagree at the root")
	}
	const k = "k-3"
	b.Apply(k, 4, []byte("v"))      // XOR-remove the shared record
	b.Apply(k, 99, []byte("newer")) // replace with a divergent one
	if a.Root() == b.Root() {
		t.Fatal("divergent record sets agree at the root")
	}
	la, lb := a.Leaves(), b.Leaves()
	var tops []int
	for i := range la {
		if la[i] != lb[i] {
			tops = append(tops, i)
		}
	}
	if len(tops) != 1 || tops[0] != aeBucket(k) {
		t.Fatalf("divergent tops = %v, want exactly [%d]", tops, aeBucket(k))
	}
	sa, sb := a.SubLeaves(tops[0]), b.SubLeaves(tops[0])
	var diff []int
	for j := range sa {
		if sa[j] != sb[j] {
			diff = append(diff, j)
		}
	}
	if len(diff) != 1 || tops[0]*aeFanout+diff[0] != aeSub(k) {
		t.Fatalf("divergent subs in bucket %d = %v, want the sub %d hashes to (%d)",
			tops[0], diff, aeSub(k), aeSub(k)%aeFanout)
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
	if _, err := dst.store.Part(p).BeginInbound(1, 0, false, 50); err != nil {
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
	if _, err := dst.store.Part(p).BeginInbound(1, 0, false, 3); err != nil {
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
