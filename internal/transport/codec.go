package transport

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// Message is the wire unit of the node protocol. The fields are
// generic routing/payload slots; the node layer assigns meaning to
// Kind values and payload encodings. The zero value is a valid
// (empty) message.
type Message struct {
	// Kind discriminates the request/response type (node protocol).
	Kind uint8
	// Status is 0 (StatusOK) on requests and successful responses;
	// non-zero responses carry an application error class.
	Status uint8
	// Partition addresses one data partition where relevant.
	Partition uint32
	// Origin is the datacenter index a routed request entered the
	// cluster at; forwarding preserves it for traffic accounting.
	Origin uint32
	// Hops counts transport-level forwards of a routed request.
	Hops uint32
	// Epoch tags epoch-scoped messages (stats exchange, ticks).
	Epoch uint64
	// Version is the data-plane version number of the carried write:
	// the per-key version a primary stamped on a Put, propagated on
	// sync and snapshot traffic and echoed on read replies so quorum
	// reads can rank divergent copies. Zero means "no version" (control
	// messages, legacy unversioned values).
	Version uint64
	// Session identifies a multi-message transfer session (chunked
	// replica transfers). Zero means "no session".
	Session uint64
	// Cursor is the session resume position: on chunks it is the chunk
	// index being carried, on acks the next chunk the receiver wants.
	Cursor uint64
	// Key and Value are the payload slots. Either may be nil.
	Key   []byte
	Value []byte
}

// Response status classes. The node protocol maps its own error
// conditions onto these; the transport itself only produces
// StatusError (for handler failures and missing handlers).
const (
	StatusOK       uint8 = 0
	StatusError    uint8 = 1 // handler failed; Value holds the error text
	StatusNotFound uint8 = 2
	StatusRetry    uint8 = 3 // transient condition, safe to retry
)

// Err converts a non-OK response into an error (nil for StatusOK).
func (m *Message) Err() error {
	switch m.Status {
	case StatusOK, StatusNotFound:
		return nil
	default:
		return fmt.Errorf("transport: remote status %d: %s", m.Status, m.Value)
	}
}

// MaxFrame is the largest encoded message a conforming endpoint
// accepts: 16 MiB comfortably holds a full partition transfer at the
// Table I partition size while bounding a malicious or corrupt
// length prefix.
const MaxFrame = 16 << 20

// FrameVersion is the wire frame format this package speaks. Version 1
// was the unversioned 4-byte length prefix of the serialized transport
// (one exchange in flight per connection); version 2 added the frame
// type and correlation ID that request multiplexing needs; version 3
// inserts the data-plane Version field into the message body (between
// epoch and key), so v2 bodies no longer parse and mixing binaries
// across the change fails loudly at the header instead of silently
// misreading payloads; version 4 inserts the Session and Cursor fields
// (between version and key) that chunked transfer sessions ride on;
// version 5 leaves the frame layout untouched and marks the
// protocol-vocabulary extension that added the anti-entropy kinds
// (digest and repair frames) — a binary without their handlers must
// refuse the stream at the header rather than StatusError every
// digest round; version 6 again leaves the layout untouched: transfer
// probes answer non-resident targets with a digest too, begins carry a
// delta flag, and the offer kind joins the vocabulary; version 7 again
// leaves the layout untouched: the stats payload's anti-entropy section
// carries bare roots instead of digests, and the anti-entropy kinds
// leave the vocabulary (repairs are transfer sessions). A v1 frame
// shorter than 16 MiB always starts with a 0x00 byte, so this decoder
// reads it as "version 0" and rejects it cleanly rather than misparsing
// the stream.
const FrameVersion = 7

// Frame types: every frame is either a request (carrying a correlation
// ID the responder must echo) or the response bearing that ID.
const (
	FrameRequest  uint8 = 0
	FrameResponse uint8 = 1
)

// frameHeaderLen is the byte length of the v2 frame header:
// version(1) + type(1) + correlation id(8, big-endian) + body
// length(4, big-endian).
const frameHeaderLen = 14

// AppendMessage appends the encoded message body (no frame header) to
// dst and returns the extended slice. Layout: kind, status, then
// uvarint partition/origin/hops/epoch/version/session/cursor, then
// length-prefixed key and value.
func AppendMessage(dst []byte, m *Message) []byte {
	dst = append(dst, m.Kind, m.Status)
	dst = binary.AppendUvarint(dst, uint64(m.Partition))
	dst = binary.AppendUvarint(dst, uint64(m.Origin))
	dst = binary.AppendUvarint(dst, uint64(m.Hops))
	dst = binary.AppendUvarint(dst, m.Epoch)
	dst = binary.AppendUvarint(dst, m.Version)
	dst = binary.AppendUvarint(dst, m.Session)
	dst = binary.AppendUvarint(dst, m.Cursor)
	dst = binary.AppendUvarint(dst, uint64(len(m.Key)))
	dst = append(dst, m.Key...)
	dst = binary.AppendUvarint(dst, uint64(len(m.Value)))
	dst = append(dst, m.Value...)
	return dst
}

// DecodeMessage parses an encoded message body. The returned message
// aliases buf's key/value bytes; callers that retain them across
// buffer reuse must copy.
func DecodeMessage(buf []byte) (*Message, error) {
	m := &Message{}
	if err := DecodeMessageInto(m, buf); err != nil {
		return nil, err
	}
	return m, nil
}

// DecodeMessageInto parses an encoded message body into m, the
// allocation-free variant of DecodeMessage for hot paths that reuse a
// Message. Every field of m is overwritten; Key/Value alias buf.
func DecodeMessageInto(m *Message, buf []byte) error {
	if len(buf) < 2 {
		return fmt.Errorf("transport: message truncated at header (%d bytes)", len(buf))
	}
	m.Kind, m.Status = buf[0], buf[1]
	rest := buf[2:]
	var err error
	if m.Partition, rest, err = takeUint32(rest, "partition"); err != nil {
		return err
	}
	if m.Origin, rest, err = takeUint32(rest, "origin"); err != nil {
		return err
	}
	if m.Hops, rest, err = takeUint32(rest, "hops"); err != nil {
		return err
	}
	if m.Epoch, rest, err = takeUvarint(rest, "epoch"); err != nil {
		return err
	}
	if m.Version, rest, err = takeUvarint(rest, "version"); err != nil {
		return err
	}
	if m.Session, rest, err = takeUvarint(rest, "session"); err != nil {
		return err
	}
	if m.Cursor, rest, err = takeUvarint(rest, "cursor"); err != nil {
		return err
	}
	if m.Key, rest, err = takeBytes(rest, "key"); err != nil {
		return err
	}
	if m.Value, rest, err = takeBytes(rest, "value"); err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("transport: %d trailing bytes after message", len(rest))
	}
	return nil
}

func takeUvarint(buf []byte, field string) (uint64, []byte, error) {
	v, n := binary.Uvarint(buf)
	if n <= 0 {
		return 0, nil, fmt.Errorf("transport: bad uvarint in %s field", field)
	}
	// Reject overlong (non-minimal) encodings: a minimal uvarint never
	// ends in a zero byte except the single-byte encoding of zero.
	// Accepting them would let two different byte strings decode to the
	// same message, breaking the bit-identical wire contract.
	if n > 1 && buf[n-1] == 0 {
		return 0, nil, fmt.Errorf("transport: overlong uvarint in %s field", field)
	}
	return v, buf[n:], nil
}

// takeUint32 decodes a uvarint bound for a 32-bit field, rejecting
// values that would silently truncate (a corrupt or non-canonical
// encoding must not decode into a message that re-encodes
// differently).
func takeUint32(buf []byte, field string) (uint32, []byte, error) {
	v, rest, err := takeUvarint(buf, field)
	if err != nil {
		return 0, nil, err
	}
	if v > 1<<32-1 {
		return 0, nil, fmt.Errorf("transport: %s value %d overflows uint32", field, v)
	}
	return uint32(v), rest, nil
}

func takeBytes(buf []byte, field string) ([]byte, []byte, error) {
	n, rest, err := takeUvarint(buf, field)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(rest)) {
		return nil, nil, fmt.Errorf("transport: %s length %d exceeds remaining %d bytes", field, n, len(rest))
	}
	if n == 0 {
		return nil, rest, nil
	}
	return rest[:n], rest[n:], nil
}

// errFrameSize marks a message too large to frame. Send treats it as
// permanent: retrying cannot shrink the payload.
var errFrameSize = fmt.Errorf("transport: frame exceeds MaxFrame %d", MaxFrame)

// AppendFrame appends one complete v2 frame (header + encoded message
// body) to dst and returns the extended slice. ftype is FrameRequest
// or FrameResponse; id is the correlation ID a response must echo.
func AppendFrame(dst []byte, ftype uint8, id uint64, m *Message) ([]byte, error) {
	start := len(dst)
	dst = append(dst, make([]byte, frameHeaderLen)...)
	dst = AppendMessage(dst, m)
	n := len(dst) - start - frameHeaderLen
	if n > MaxFrame {
		return dst[:start], errFrameSize
	}
	hdr := dst[start : start+frameHeaderLen]
	hdr[0] = FrameVersion
	hdr[1] = ftype
	binary.BigEndian.PutUint64(hdr[2:10], id)
	binary.BigEndian.PutUint32(hdr[10:14], uint32(n))
	return dst, nil
}

// parseFrameHeader validates a v2 frame header and returns its fields.
// It rejects unknown versions (including v1 frames, whose length
// prefix reads as version 0 here), unknown frame types, and body
// lengths over MaxFrame — all before any body byte is read, so a
// corrupt header cannot trigger a giant allocation.
func parseFrameHeader(hdr []byte) (ftype uint8, id uint64, n uint32, err error) {
	if hdr[0] != FrameVersion {
		return 0, 0, 0, fmt.Errorf("transport: unsupported frame version %d (this endpoint speaks v%d)", hdr[0], FrameVersion)
	}
	if hdr[1] != FrameRequest && hdr[1] != FrameResponse {
		return 0, 0, 0, fmt.Errorf("transport: unknown frame type %d", hdr[1])
	}
	n = binary.BigEndian.Uint32(hdr[10:14])
	if n > MaxFrame {
		return 0, 0, 0, fmt.Errorf("transport: frame length %d exceeds MaxFrame %d", n, MaxFrame)
	}
	return hdr[1], binary.BigEndian.Uint64(hdr[2:10]), n, nil
}

// DecodeFrame parses one complete v2 frame from buf. The returned
// message aliases buf; trailing bytes after the frame are rejected so
// accepted frames re-encode byte-identically.
func DecodeFrame(buf []byte) (ftype uint8, id uint64, m *Message, err error) {
	if len(buf) < frameHeaderLen {
		return 0, 0, nil, fmt.Errorf("transport: frame truncated at header (%d bytes)", len(buf))
	}
	ftype, id, n, err := parseFrameHeader(buf[:frameHeaderLen])
	if err != nil {
		return 0, 0, nil, err
	}
	body := buf[frameHeaderLen:]
	if uint64(len(body)) != uint64(n) {
		return 0, 0, nil, fmt.Errorf("transport: frame body is %d bytes, header says %d", len(body), n)
	}
	m, err = DecodeMessage(body)
	if err != nil {
		return 0, 0, nil, err
	}
	return ftype, id, m, nil
}

// bufPool recycles codec scratch buffers so the steady-state encode
// path allocates nothing. Ownership rule: a pooled buffer may back
// request-direction bytes only (frames in flight, decoded request
// key/value handed to a handler for the duration of the call) —
// response bodies returned to Send callers are always freshly
// allocated, because callers own them indefinitely.
var bufPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 512); return &b },
}

func getBuf() *[]byte {
	return bufPool.Get().(*[]byte)
}

// putBuf returns a scratch buffer to the pool. Buffers that grew past
// a full partition-sized transfer are dropped so one giant frame does
// not pin its capacity forever.
func putBuf(b *[]byte) {
	if cap(*b) > maxIdleBuf {
		return
	}
	*b = (*b)[:0]
	bufPool.Put(b)
}

// msgPool recycles Message structs for the request direction, under
// the same ownership rule as bufPool.
var msgPool = sync.Pool{
	New: func() any { return new(Message) },
}

func getMsg() *Message { return msgPool.Get().(*Message) }

func putMsg(m *Message) {
	*m = Message{}
	msgPool.Put(m)
}

// errorReply wraps a handler failure as a StatusError response so the
// sender sees the failure text instead of a dropped connection.
func errorReply(req *Message, err error) *Message {
	return &Message{Kind: req.Kind, Status: StatusError, Value: []byte(err.Error())}
}
