package transport

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"
)

func msgEqual(a, b *Message) bool {
	norm := func(m *Message) Message {
		c := *m
		if len(c.Key) == 0 {
			c.Key = nil
		}
		if len(c.Value) == 0 {
			c.Value = nil
		}
		return c
	}
	return reflect.DeepEqual(norm(a), norm(b))
}

func TestMessageRoundTrip(t *testing.T) {
	cases := []*Message{
		{},
		{Kind: 7, Status: StatusNotFound},
		{Kind: 1, Partition: 63, Origin: 9, Hops: 4, Epoch: 1 << 40, Key: []byte("k"), Value: []byte("v")},
		{Kind: 255, Status: 255, Partition: 1<<32 - 1, Origin: 1<<32 - 1, Hops: 1<<32 - 1, Epoch: 1<<64 - 1, Version: 1<<64 - 1},
		{Kind: 2, Key: bytes.Repeat([]byte{0xAB}, 1<<16), Value: bytes.Repeat([]byte{0xCD}, 1<<18)},
		{Kind: 3, Value: []byte{}},
		{Kind: 3, Partition: 7, Version: 5<<20 | 3, Key: []byte("k"), Value: []byte("v")},
		{Kind: 9, Partition: 3, Session: 1<<56 | 42, Cursor: 0, Value: []byte("begin")},
		{Kind: 10, Partition: 3, Session: 1<<56 | 42, Cursor: 17, Value: []byte("chunk")},
		{Kind: 11, Status: StatusRetry, Session: 1<<64 - 1, Cursor: 1<<64 - 1},
		{Kind: 12, Session: 7, Cursor: 1 << 32},
	}
	for i, m := range cases {
		enc := AppendMessage(nil, m)
		got, err := DecodeMessage(enc)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if !msgEqual(m, got) {
			t.Fatalf("case %d: round trip mismatch:\n in  %+v\n out %+v", i, m, got)
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	msgs := []*Message{
		{Kind: 1, Key: []byte("a"), Value: []byte("1")},
		{Kind: 2, Partition: 5, Epoch: 9},
		{Kind: 3, Value: bytes.Repeat([]byte("x"), 10000)},
	}
	for i, want := range msgs {
		ftype := FrameRequest
		if i%2 == 1 {
			ftype = FrameResponse
		}
		enc, err := AppendFrame(nil, ftype, uint64(i)*1e9+7, want)
		if err != nil {
			t.Fatalf("frame %d: encode: %v", i, err)
		}
		gotType, gotID, got, err := DecodeFrame(enc)
		if err != nil {
			t.Fatalf("frame %d: decode: %v", i, err)
		}
		if gotType != ftype || gotID != uint64(i)*1e9+7 {
			t.Fatalf("frame %d: header mismatch: type %d id %d", i, gotType, gotID)
		}
		if !msgEqual(want, got) {
			t.Fatalf("frame %d mismatch: %+v vs %+v", i, want, got)
		}
	}
}

func TestFrameStreamRoundTrip(t *testing.T) {
	// Frames written back to back must parse in sequence from a byte
	// stream, the way the connection read loops consume them.
	var stream []byte
	msgs := []*Message{
		{Kind: 1, Key: []byte("a"), Value: []byte("1")},
		{Kind: 2, Partition: 5, Epoch: 9},
		{Kind: 3, Value: bytes.Repeat([]byte("x"), 10000)},
	}
	for i, m := range msgs {
		var err error
		stream, err = AppendFrame(stream, FrameRequest, uint64(i+1), m)
		if err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range msgs {
		_, id, n, err := parseFrameHeader(stream[:frameHeaderLen])
		if err != nil {
			t.Fatalf("frame %d: header: %v", i, err)
		}
		if id != uint64(i+1) {
			t.Fatalf("frame %d: correlation id %d", i, id)
		}
		got, err := DecodeMessage(stream[frameHeaderLen : frameHeaderLen+int(n)])
		if err != nil {
			t.Fatalf("frame %d: body: %v", i, err)
		}
		if !msgEqual(want, got) {
			t.Fatalf("frame %d mismatch: %+v vs %+v", i, want, got)
		}
		stream = stream[frameHeaderLen+int(n):]
	}
	if len(stream) != 0 {
		t.Fatalf("%d trailing bytes", len(stream))
	}
}

func TestDecodeMessageRejectsCorrupt(t *testing.T) {
	good := AppendMessage(nil, &Message{Kind: 1, Key: []byte("key"), Value: []byte("value")})
	cases := map[string][]byte{
		"empty":        {},
		"header only":  good[:1],
		"truncated":    good[:len(good)-3],
		"trailing":     append(append([]byte{}, good...), 0x00),
		"bad key len":  {1, 0, 0, 0, 0, 0, 0xFF},
		"overlong key": {1, 0, 0, 0, 0, 0, 200, 'a'},
	}
	for name, buf := range cases {
		if _, err := DecodeMessage(buf); err == nil {
			t.Errorf("%s: decode accepted corrupt input", name)
		}
	}
}

func TestFrameHeaderRejections(t *testing.T) {
	good, err := AppendFrame(nil, FrameRequest, 42, &Message{Kind: 1, Key: []byte("k")})
	if err != nil {
		t.Fatal(err)
	}

	oversized := append([]byte{}, good...)
	binary.BigEndian.PutUint32(oversized[10:14], MaxFrame+1)
	if _, _, _, err := DecodeFrame(oversized); err == nil || !strings.Contains(err.Error(), "MaxFrame") {
		t.Fatalf("oversized frame not rejected: %v", err)
	}

	// A v1 frame (bare 4-byte length prefix) starts with 0x00 for any
	// body under 16 MiB; the v2 decoder must reject it as an
	// unsupported version instead of misparsing the stream.
	v1 := binary.BigEndian.AppendUint32(nil, 32)
	v1 = append(v1, bytes.Repeat([]byte{0xAA}, 32)...)
	if _, _, _, err := DecodeFrame(v1); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("v1 frame not rejected as wrong version: %v", err)
	}

	badVersion := append([]byte{}, good...)
	badVersion[0] = FrameVersion + 1
	if _, _, _, err := DecodeFrame(badVersion); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("future version not rejected: %v", err)
	}
	// A v6 peer's stats payload carries digests where this one reads
	// roots; its frames must fail at the header.
	v6 := append([]byte{}, good...)
	v6[0] = 6
	if _, _, _, err := DecodeFrame(v6); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("v6 frame not rejected: %v", err)
	}

	badType := append([]byte{}, good...)
	badType[1] = 9
	if _, _, _, err := DecodeFrame(badType); err == nil || !strings.Contains(err.Error(), "frame type") {
		t.Fatalf("unknown frame type not rejected: %v", err)
	}

	if _, _, _, err := DecodeFrame(good[:frameHeaderLen-1]); err == nil {
		t.Fatal("truncated header accepted")
	}
	short := append([]byte{}, good[:len(good)-1]...)
	if _, _, _, err := DecodeFrame(short); err == nil {
		t.Fatal("short body accepted")
	}
	long := append(append([]byte{}, good...), 0x00)
	if _, _, _, err := DecodeFrame(long); err == nil {
		t.Fatal("trailing bytes accepted")
	}

	tooBig := &Message{Value: make([]byte, MaxFrame+1)}
	if _, err := AppendFrame(nil, FrameRequest, 1, tooBig); err == nil {
		t.Fatal("AppendFrame accepted an over-MaxFrame body")
	}
}

func TestMessageErr(t *testing.T) {
	if err := (&Message{Status: StatusOK}).Err(); err != nil {
		t.Fatalf("StatusOK produced error %v", err)
	}
	if err := (&Message{Status: StatusNotFound}).Err(); err != nil {
		t.Fatalf("StatusNotFound is not an error condition, got %v", err)
	}
	err := (&Message{Status: StatusError, Value: []byte("boom")}).Err()
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("StatusError lost the message: %v", err)
	}
}
