package transport

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzDecodeMessage fuzzes the length-prefixed codec's body decoder
// with the round-trip property: any input DecodeMessage accepts must
// re-encode and re-decode to the identical message (decode → encode →
// decode is a fixed point). Inputs the decoder rejects are fine; what
// it may never do is panic, over-allocate from an unvalidated length,
// or accept bytes that decode into a message it would encode
// differently (silent uvarint truncation).
func FuzzDecodeMessage(f *testing.F) {
	// Seed corpus: the codec_test.go round-trip cases plus the corrupt
	// shapes its rejection test enumerates.
	seeds := []*Message{
		{},
		{Kind: 7, Status: StatusNotFound},
		{Kind: 1, Partition: 63, Origin: 9, Hops: 4, Epoch: 1 << 40, Key: []byte("k"), Value: []byte("v")},
		{Kind: 255, Status: 255, Partition: 1<<32 - 1, Origin: 1<<32 - 1, Hops: 1<<32 - 1, Epoch: 1<<64 - 1, Version: 1<<64 - 1},
		{Kind: 2, Key: bytes.Repeat([]byte{0xAB}, 64), Value: bytes.Repeat([]byte{0xCD}, 256)},
		{Kind: 3, Value: []byte{}},
		// Version-bearing data-plane frames: a sync carrying a stamped
		// per-key version and a versioned read reply.
		{Kind: 3, Partition: 7, Version: 5<<20 | 3, Key: []byte("k"), Value: []byte("v")},
		{Kind: 8, Status: StatusOK, Partition: 2, Version: 1 << 21, Value: []byte("winner")},
		// Transfer-session frames: begin, chunk, cursor ack, complete —
		// the four v4 kinds that ride the Session/Cursor fields.
		{Kind: 9, Partition: 3, Session: 1<<56 | 42, Cursor: 0, Value: []byte("begin")},
		{Kind: 10, Partition: 3, Session: 1<<56 | 42, Cursor: 17, Value: []byte("chunk")},
		{Kind: 11, Status: StatusRetry, Partition: 3, Session: 1<<56 | 42, Cursor: 18},
		{Kind: 12, Partition: 3, Session: 1<<56 | 42, Cursor: 1<<64 - 1},
		// Anti-entropy frames (v5 vocabulary; kinds 13–15 are retired
		// since v7 but stay as corpus shapes): a digest whose Value is a
		// leaf-vector blob, and a repair carrying an entry block. The
		// codec is kind-generic, so mutations still explore their
		// payload framing.
		{Kind: 13, Partition: 5, Epoch: 96, Origin: 2, Value: bytes.Repeat([]byte{0x5A}, 40)},
		{Kind: 14, Partition: 5, Epoch: 96, Origin: 2, Value: []byte("\x01\x06ae-key\x01\x02av")},
		// Delta-replication frames (v6 vocabulary). The node-layer
		// payload encoders are out of reach here, so the blobs are
		// hand-laid in their wire shapes: a sub-digest request carrying
		// one top bucket's 64 leaf hashes, its keylist reply (one
		// sub-bucket, one key/version pair), an ae-fetch key list,
		// cursor-probe replies whose Version rides a target watermark
		// with a transfer-info blob (flags byte 1 + 64 leaves + root, or
		// the one-byte non-resident form) in the Value, and a begin reply
		// carrying only its cursor.
		{Kind: 13, Partition: 5, Epoch: 97, Origin: 2, Value: append([]byte{1, 0}, make([]byte, 8*64)...)},
		{Kind: 13, Status: StatusOK, Partition: 5, Value: []byte{1, 5, 1, 3, 'k', 'e', 'y', 9}},
		{Kind: 15, Partition: 5, Epoch: 97, Origin: 2, Value: []byte{1, 3, 'k', 'e', 'y'}},
		{Kind: 15, Status: StatusOK, Partition: 5, Value: []byte{1, 3, 'k', 'e', 'y', 9, 1, 'v'}},
		{Kind: 11, Status: StatusNotFound, Partition: 3, Version: 1 << 21, Value: append([]byte{1}, make([]byte, 8*64+8)...)},
		{Kind: 11, Status: StatusNotFound, Partition: 3, Session: 42, Version: 1 << 21, Value: []byte{0}},
		{Kind: 9, Status: StatusOK, Partition: 3, Session: 42, Cursor: 5},
	}
	for _, m := range seeds {
		f.Add(AppendMessage(nil, m))
	}
	good := AppendMessage(nil, &Message{Kind: 1, Key: []byte("key"), Value: []byte("value")})
	f.Add(good[:1])
	f.Add(good[:len(good)-3])
	f.Add(append(append([]byte{}, good...), 0x00))
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0xFF})
	// A 5-byte uvarint exceeding uint32 in the partition slot: must be
	// rejected, not truncated.
	over := []byte{1, 0}
	over = binary.AppendUvarint(over, 1<<33)
	f.Add(over)

	// Frame-layer seeds: well-formed v2 mux frames of both types, a
	// truncated header, a header/body length mismatch, and a v1 frame
	// (bare 4-byte length prefix) that must be rejected as version 0.
	for i, m := range seeds {
		frame, err := AppendFrame(nil, uint8(i%2), uint64(i)<<32|7, m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
		f.Add(frame[:frameHeaderLen-1])
		f.Add(frame[:len(frame)-1])
	}
	v1 := binary.BigEndian.AppendUint32(nil, uint32(len(good)))
	f.Add(append(v1, good...))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Body codec property: decode → encode → decode is a fixed
		// point, and any accepted input is the canonical encoding.
		m, err := DecodeMessage(data)
		if err == nil {
			enc := AppendMessage(nil, m)
			m2, err := DecodeMessage(enc)
			if err != nil {
				t.Fatalf("re-decode of accepted input failed: %v\ninput: %x\nre-encoded: %x", err, data, enc)
			}
			if !msgEqual(m, m2) {
				t.Fatalf("decode→encode→decode not a fixed point:\nfirst  %+v\nsecond %+v\ninput: %x", m, m2, data)
			}
			// The accepted encoding must itself be canonical:
			// re-encoding the decoded message must reproduce the input
			// byte for byte (the decoder rejects trailing bytes and
			// overlong uvarints, so any divergence is a truncation bug).
			if !bytes.Equal(enc, data) {
				t.Fatalf("accepted non-canonical encoding:\ninput      %x\nre-encoded %x", data, enc)
			}
		}
		// Frame codec property: the same bytes read as a complete mux
		// frame must round-trip header and body canonically too, and a
		// rejected frame must never panic. Accepting data both ways is
		// impossible by construction (a frame's first byte is the
		// version, a body's is the kind — but the properties hold
		// independently, so no cross-check is needed).
		ftype, id, fm, err := DecodeFrame(data)
		if err != nil {
			return
		}
		enc, err := AppendFrame(nil, ftype, id, fm)
		if err != nil {
			t.Fatalf("re-encode of accepted frame failed: %v\ninput: %x", err, data)
		}
		if !bytes.Equal(enc, data) {
			t.Fatalf("accepted non-canonical frame:\ninput      %x\nre-encoded %x", data, enc)
		}
		ftype2, id2, fm2, err := DecodeFrame(enc)
		if err != nil {
			t.Fatalf("re-decode of accepted frame failed: %v\ninput: %x", err, data)
		}
		if ftype2 != ftype || id2 != id || !msgEqual(fm, fm2) {
			t.Fatalf("frame decode→encode→decode not a fixed point:\nfirst  type=%d id=%d %+v\nsecond type=%d id=%d %+v",
				ftype, id, fm, ftype2, id2, fm2)
		}
	})
}
