package node

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"repro/internal/durable"
)

// FuzzWireBlobs fuzzes every payload decoder of the node protocol with
// the same three properties: no input panics, no accepted input decodes
// into more elements than it has bytes (every element costs at least
// one, so a larger count means a length was trusted unchecked), and
// any accepted input re-encodes to bytes that decode to an equal value.
// Every decoder sees every input, so a seed laid out for one blob shape
// also probes the others.
func FuzzWireBlobs(f *testing.F) {
	for _, seed := range wireBlobSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, check := range wireBlobs {
			check(t, data)
		}
	})
}

// blobCodec binds a decoder to its element count and its encoder and
// returns the FuzzWireBlobs property check over them.
func blobCodec[T any](name string, decode func([]byte) (T, error), elems func(T) int, encode func(T) []byte) func(*testing.T, []byte) {
	return func(t *testing.T, data []byte) {
		v, err := decode(data)
		if err != nil {
			return
		}
		if n := elems(v); n > len(data) {
			t.Fatalf("%s: %d input bytes decoded into %d elements", name, len(data), n)
		}
		enc := encode(v)
		v2, err := decode(enc)
		if err != nil {
			t.Fatalf("%s: re-decode of accepted input failed: %v\ninput      %x\nre-encoded %x", name, err, data, enc)
		}
		if !reflect.DeepEqual(v, v2) {
			t.Fatalf("%s: decode→encode→decode changed the value:\nfirst  %+v\nsecond %+v\ninput %x", name, v, v2, data)
		}
	}
}

// Multi-result decoders, folded into one comparable value each.
type (
	fuzzXferInfo struct {
		leaves []uint64
		root   uint64
	}
	fuzzXferBegin struct {
		total       uint32
		mark, delta bool
		chunk       []durable.Entry
	}
)

// wireBlobs bounds decodeStats and decodeAckSet as the round-trip tests
// do, so their seeds decode.
var wireBlobs = []func(*testing.T, []byte){
	blobCodec("stats",
		func(b []byte) (*statsBlob, error) { return decodeStats(b, 8, 3) },
		func(s *statsBlob) int {
			n := len(s.counters) + len(s.claims) + len(s.roots)
			for _, c := range s.claims {
				n += len(c.replicas)
			}
			return n
		},
		func(s *statsBlob) []byte { return appendStats(nil, s) }),
	blobCodec("xfer-info",
		func(b []byte) (fuzzXferInfo, error) {
			leaves, root, err := decodeXferInfo(b)
			return fuzzXferInfo{leaves, root}, err
		},
		func(x fuzzXferInfo) int { return len(x.leaves) },
		func(x fuzzXferInfo) []byte { return appendXferInfo(nil, x.leaves, x.root) }),
	blobCodec("xfer-begin",
		func(b []byte) (fuzzXferBegin, error) {
			total, mark, delta, chunk, err := decodeXferBegin(b)
			return fuzzXferBegin{total, mark, delta, chunk}, err
		},
		func(x fuzzXferBegin) int { return 1 + len(x.chunk) },
		func(x fuzzXferBegin) []byte { return appendXferBegin(nil, x.total, x.mark, x.delta, x.chunk) }),
	blobCodec("xfer-want",
		func(b []byte) ([]int, error) { return decodeXferWant(b, 1<<16) },
		func(want []int) int { return len(want) },
		func(want []int) []byte { return appendXferWant(nil, want) }),
	blobCodec("entries", decodeEntries,
		func(entries []durable.Entry) int { return len(entries) },
		func(entries []durable.Entry) []byte { return appendEntries(nil, entries) }),
	blobCodec("ack-set",
		func(b []byte) ([]int, error) { return decodeAckSet(b, 5) },
		func(acked []int) int { return len(acked) },
		func(acked []int) []byte { return appendAckSet(nil, acked) }),
}

// wireBlobSeeds lays out the round-trip tests' values in every blob
// shape, plus the corrupt shapes their rejection tables enumerate.
func wireBlobSeeds() [][]byte {
	leaves := make([]uint64, aeTop)
	for i := range leaves {
		leaves[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	return [][]byte{
		appendStats(nil, &statsBlob{}),
		appendStats(nil, &statsBlob{
			counters: []partitionCounters{
				{partition: 0, origin: 3, transit: 1, served: 4},
				{partition: 7, transit: 9, served: 2, overflow: 5},
			},
			claims: []placementClaim{
				{partition: 0, primary: 1, replicas: []int{0, 1, 2}},
				{partition: 7, primary: 2, replicas: []int{2}},
			},
			roots: []aeRoot{{partition: 1, root: 77}, {partition: 5, root: 1<<64 - 1}},
		}),
		appendXferInfo(nil, leaves, 42),
		// A target holding nothing — how a memory-mode rejoiner or a
		// dropped copy answers the probe, resident or not.
		appendXferInfo(nil, nil, 0),
		appendXferBegin(nil, 0, false, false, nil),
		appendXferBegin(nil, 17, true, false, nil),
		appendXferBegin(nil, 1<<32-1, true, true, nil),
		// An offer (an entry block with empty values) and its want list.
		appendEntries(nil, []durable.Entry{{Key: "alpha", Ver: 7}, {Key: "beta", Ver: 1 << 40}}),
		appendXferWant(nil, []int{0, 3, 300}),
		appendXferWant(nil, nil),
		// Stats blobs whose root section is empty, holds one root, and
		// declares far more roots than it carries.
		appendStats(nil, &statsBlob{
			counters: []partitionCounters{{partition: 3, served: 1}},
			claims:   []placementClaim{{partition: 3, primary: 0, replicas: []int{0, 1}}},
		}),
		appendStats(nil, &statsBlob{roots: []aeRoot{{partition: 7, root: 0x9E3779B97F4A7C15}}}),
		binary.AppendUvarint([]byte{0, 0}, 1<<20),
		appendEntries(nil, []durable.Entry{
			{Key: "alpha", Val: []byte("1"), Ver: 7},
			{Key: "beta", Val: []byte{}, Ver: 0},
			{Key: "gamma", Val: bytes.Repeat([]byte("x"), 300), Ver: 9<<20 | 3},
		}),
		appendAckSet(nil, []int{0, 2, 4}),
		// Corrupt shapes: empty, unknown flags, length and count bombs.
		{},
		{7},
		{1, 0xFF},
		{1, 2, 1, 0xFF},
		{0xFF, 0xFF, 0xFF, 0xFF, 0x0F},
		binary.AppendUvarint([]byte{1}, 1<<20),
		binary.AppendUvarint(nil, 1<<40),
		// A one-chunk begin, carrying its chunk.
		appendXferBegin(nil, 1, true, true, []durable.Entry{
			{Key: "alpha", Val: []byte("1"), Ver: 7},
			{Key: "beta", Val: []byte{}, Ver: 0},
		}),
	}
}
