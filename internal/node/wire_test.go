package node

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/durable"
)

func TestStatsBlobRoundTrip(t *testing.T) {
	in := &statsBlob{
		counters: []partitionCounters{
			{partition: 0, origin: 3, transit: 1, served: 4, overflow: 0},
			{partition: 7, origin: 0, transit: 9, served: 2, overflow: 5},
		},
		claims: []placementClaim{
			{partition: 0, primary: 1, replicas: []int{0, 1, 2}},
			{partition: 7, primary: 2, replicas: []int{2}},
		},
	}
	enc := appendStats(nil, in)
	out, err := decodeStats(enc, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in  %+v\n out %+v", in, out)
	}
}

func TestStatsBlobEmpty(t *testing.T) {
	enc := appendStats(nil, &statsBlob{})
	out, err := decodeStats(enc, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.counters) != 0 || len(out.claims) != 0 {
		t.Fatalf("empty blob decoded non-empty: %+v", out)
	}
}

func TestDecodeStatsRejectsCorrupt(t *testing.T) {
	good := appendStats(nil, &statsBlob{
		counters: []partitionCounters{{partition: 1, origin: 2}},
		claims:   []placementClaim{{partition: 1, primary: 0, replicas: []int{0}}},
	})
	cases := map[string][]byte{
		"empty truncated":     good[:0],
		"truncated counters":  good[:2],
		"trailing bytes":      append(append([]byte{}, good...), 1),
		"partition too large": appendStats(nil, &statsBlob{counters: []partitionCounters{{partition: 99}}}),
		"peer too large":      appendStats(nil, &statsBlob{claims: []placementClaim{{partition: 1, primary: 42}}}),
	}
	for name, buf := range cases {
		if _, err := decodeStats(buf, 8, 3); err == nil {
			t.Errorf("%s: corrupt stats accepted", name)
		}
	}
}

// encodeSnapshot is a full ship's encoding path in miniature: the
// entries go through a memory-mode partition in the given order and
// come back in its canonical ascending-key order, as one entry block.
func encodeSnapshot(t *testing.T, entries ...durable.Entry) []byte {
	t.Helper()
	eng, err := durable.Open(durable.Options{Partitions: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.Part(0).MergeSnapshot(entries); err != nil {
		t.Fatal(err)
	}
	sorted, _ := eng.Part(0).Entries()
	return appendEntries(nil, sorted)
}

func TestSnapshotRoundTrip(t *testing.T) {
	in := []durable.Entry{
		{Key: "gamma", Val: bytes.Repeat([]byte("x"), 300), Ver: 9<<20 | 3},
		{Key: "alpha", Val: []byte("1"), Ver: 7},
		{Key: "beta", Val: []byte{}, Ver: 0},
	}
	out, err := decodeEntries(encodeSnapshot(t, in...))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("size mismatch: %d vs %d", len(out), len(in))
	}
	// Entries come back in the canonical ascending key order.
	for i, want := range []durable.Entry{in[1], in[2], in[0]} {
		if e := out[i]; e.Key != want.Key || !bytes.Equal(e.Val, want.Val) || e.Ver != want.Ver {
			t.Fatalf("entry %d: got (%q, %q, %d), want (%q, %q, %d)", i, e.Key, e.Val, e.Ver, want.Key, want.Val, want.Ver)
		}
	}
}

func TestSnapshotEncodingIsCanonical(t *testing.T) {
	k1 := durable.Entry{Key: "k1", Val: []byte("v1"), Ver: 1}
	k2 := durable.Entry{Key: "k2", Val: []byte("v2"), Ver: 2}
	k3 := durable.Entry{Key: "k3", Val: []byte("v3"), Ver: 3}
	if !bytes.Equal(encodeSnapshot(t, k1, k2, k3), encodeSnapshot(t, k3, k1, k2)) {
		t.Fatal("snapshot encoding depends on construction order")
	}
}

func TestDecodeSnapshotRejectsCorrupt(t *testing.T) {
	good := encodeSnapshot(t, durable.Entry{Key: "key", Val: []byte("value"), Ver: 5})
	cases := map[string][]byte{
		"truncated": good[:len(good)-2],
		"trailing":  append(append([]byte{}, good...), 0),
		"bomb":      {0xFF, 0xFF, 0xFF, 0xFF, 0x0F},
	}
	for name, buf := range cases {
		if _, err := decodeEntries(buf); err == nil {
			t.Errorf("%s: corrupt snapshot accepted", name)
		}
	}
}

func TestAckSetRoundTrip(t *testing.T) {
	cases := [][]int{nil, {0}, {0, 2, 4}, {1, 2, 3, 4}}
	for _, in := range cases {
		enc := appendAckSet(nil, in)
		out, err := decodeAckSet(enc, 5)
		if err != nil {
			t.Fatalf("acks %v: %v", in, err)
		}
		if len(out) != len(in) {
			t.Fatalf("acks %v: decoded %v", in, out)
		}
		for i := range in {
			if out[i] != in[i] {
				t.Fatalf("acks %v: decoded %v", in, out)
			}
		}
	}
}

func TestDecodeAckSetRejectsCorrupt(t *testing.T) {
	good := appendAckSet(nil, []int{0, 2})
	cases := map[string][]byte{
		"truncated":       good[:1],
		"trailing":        append(append([]byte{}, good...), 0),
		"count too large": appendAckSet(nil, []int{0, 1, 2, 3, 4, 5}),
		"index too large": appendAckSet(nil, []int{9}),
	}
	for name, buf := range cases {
		if _, err := decodeAckSet(buf, 5); err == nil {
			t.Errorf("%s: corrupt ack set accepted", name)
		}
	}
}

// TestDecodeAckSetCountBoundedByInput pins that a count no buffer could
// hold is refused before it sizes an allocation, even under
// DecodePutReceipt's loose roster bound.
func TestDecodeAckSetCountBoundedByInput(t *testing.T) {
	bomb := binary.AppendUvarint(nil, 1<<19)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 10; i++ {
		if _, err := decodeAckSet(bomb, 1<<20); err == nil {
			t.Fatal("ack-set count bomb accepted")
		}
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("10 decodes of a %d-byte count bomb allocated %d bytes", len(bomb), got)
	}
}

// TestXferBeginRoundTrip covers the multi-chunk begin (a bare header)
// and the one-chunk begin, which carries its chunk.
func TestXferBeginRoundTrip(t *testing.T) {
	chunk := []durable.Entry{
		{Key: "alpha", Val: []byte("1"), Ver: 7},
		{Key: "gamma", Val: bytes.Repeat([]byte("x"), 300), Ver: 9<<20 | 3},
	}
	cases := []struct {
		total       uint32
		mark, delta bool
		chunk       []durable.Entry
	}{
		{0, false, false, nil}, {0, true, true, nil}, {1, false, true, chunk}, {1, true, false, chunk[:1]},
		{17, true, false, nil}, {1<<32 - 1, true, true, nil},
	}
	for _, c := range cases {
		enc := appendXferBegin(nil, c.total, c.mark, c.delta, c.chunk)
		total, mark, delta, got, err := decodeXferBegin(enc)
		if err != nil {
			t.Fatalf("(%d, %v, %v): %v", c.total, c.mark, c.delta, err)
		}
		if total != c.total || mark != c.mark || delta != c.delta || len(got) != len(c.chunk) {
			t.Fatalf("(%d, %v, %v, %d entries) round-tripped to (%d, %v, %v, %d entries)",
				c.total, c.mark, c.delta, len(c.chunk), total, mark, delta, len(got))
		}
		for i, e := range got {
			if want := c.chunk[i]; e.Key != want.Key || e.Ver != want.Ver || !bytes.Equal(e.Val, want.Val) {
				t.Fatalf("(%d, %v): entry %d = %+v, want %+v", c.total, c.mark, i, e, want)
			}
		}
	}
}

func TestDecodeXferBeginRejectsCorrupt(t *testing.T) {
	good := appendXferBegin(nil, 17, true, false, nil)
	one := appendXferBegin(nil, 1, true, false, []durable.Entry{{Key: "k", Val: []byte("v"), Ver: 3}})
	cases := map[string][]byte{
		"empty":             good[:0],
		"missing flag":      good[:len(good)-1],
		"unknown flag":      append(binary.AppendUvarint(nil, 17), 4),
		"trailing":          append(append([]byte{}, good...), 0),
		"count overflows":   binary.AppendUvarint(nil, 1<<32), // and no flag byte either
		"one-chunk no body": one[:2],
		"one-chunk cut":     one[:len(one)-1],
		"one-chunk tail":    append(append([]byte{}, one...), 0),
	}
	for name, buf := range cases {
		if _, _, _, _, err := decodeXferBegin(buf); err == nil {
			t.Errorf("%s: corrupt transfer begin accepted", name)
		}
	}
}

// readDigestBlob reads buf as exactly one AE digest, as the stats and
// transfer-info decoders embed it, refusing trailing bytes.
func readDigestBlob(buf []byte) ([]uint64, uint64, error) {
	r := &uvarintReader{buf: buf}
	leaves, root := r.readAEDigest()
	if r.err == nil && len(r.buf) != 0 {
		r.err = fmt.Errorf("%d trailing bytes after AE digest", len(r.buf))
	}
	return leaves, root, r.err
}

func TestAEDigestRoundTrip(t *testing.T) {
	leaves := make([]uint64, aeTop)
	for i := range leaves {
		leaves[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	enc := appendAEDigest(nil, leaves, 0xDEADBEEF)
	got, root, err := readDigestBlob(enc)
	if err != nil {
		t.Fatal(err)
	}
	if root != 0xDEADBEEF || len(got) != aeTop {
		t.Fatalf("round-trip gave root %x, %d leaves", root, len(got))
	}
	for i := range leaves {
		if got[i] != leaves[i] {
			t.Fatalf("leaf %d round-tripped to %x, want %x", i, got[i], leaves[i])
		}
	}
	// The empty vector (zero leaves + root) is legal too.
	if _, root, err := readDigestBlob(appendAEDigest(nil, nil, 7)); err != nil || root != 7 {
		t.Fatalf("empty digest: root %d err %v", root, err)
	}
}

func TestDecodeAEDigestRejectsCorrupt(t *testing.T) {
	good := appendAEDigest(nil, make([]uint64, aeTop), 1)
	cases := map[string][]byte{
		"empty input":    {},
		"truncated leaf": good[:len(good)-9],
		"missing root":   good[:len(good)-8],
		"trailing":       append(append([]byte{}, good...), 0),
		"count bomb":     binary.AppendUvarint(nil, 1<<20),
	}
	for name, buf := range cases {
		if _, _, err := readDigestBlob(buf); err == nil {
			t.Errorf("%s: corrupt AE digest accepted", name)
		}
	}
}
