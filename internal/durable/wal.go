package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
)

// WAL record framing: every record is
//
//	[len u32 LE][crc32(payload) u32 LE][payload]
//
// with payload = op byte + op-specific fields (uvarint-encoded, keys
// and values length-prefixed). One WAL file per partition, so records
// carry no partition field. A record whose header, body or checksum is
// incomplete at the END of the file marks the torn tail of an
// interrupted append: replay truncates the file back to the last
// intact record and resumes appending from there — the torn suffix was
// never acked, so cutting it is correct, not lossy. The same damage
// with an intact record after it is not a crashed append — something
// rewrote acked bytes — and recovery refuses it.

// WAL op codes; Partition.apply is their meaning.
const (
	opPut      byte = 1 // key, ver, val: install + raise maxVer
	opMaxVer   byte = 2 // ver: raise maxVer only
	opDrop     byte = 3 // clear data+sessions, resident=false, keep maxVer
	opReset    byte = 4 // clear data+sessions, resident=true, keep maxVer
	opResident byte = 5 // resident=true
	opCursor   byte = 6 // sid, next, total, mark: inbound session cursor
	opDone     byte = 7 // sid: inbound session completed
	opRevoke   byte = 8 // resident=false, data and sessions kept (rejoin)
)

// walHeaderLen is the per-record frame header: length + checksum.
const walHeaderLen = 8

// maxRecord bounds a single record so a corrupt length prefix cannot
// trigger a giant allocation; generous against the largest value the
// transport would ever have carried in.
const maxRecord = 64 << 20

// appendRecord frames and encodes r onto dst.
func appendRecord(dst []byte, r *record) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, walHeaderLen)...)
	dst = append(dst, r.op)
	switch r.op {
	case opPut:
		dst = appendEntry(dst, r.key, r.ver, r.val)
	case opMaxVer:
		dst = binary.AppendUvarint(dst, r.ver)
	case opCursor:
		dst = appendSession(dst, r.sess)
	case opDone:
		dst = binary.AppendUvarint(dst, r.sess.ID)
	}
	payload := dst[start+walHeaderLen:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.ChecksumIEEE(payload))
	return dst
}

// appendEntry and appendSession are the field encodings WAL records
// and snapshot files share; recReader.entry and .session invert them.
func appendEntry(dst []byte, key string, ver uint64, val []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(key)))
	dst = append(dst, key...)
	dst = binary.AppendUvarint(dst, ver)
	dst = binary.AppendUvarint(dst, uint64(len(val)))
	return append(dst, val...)
}

func appendSession(dst []byte, s Session) []byte {
	dst = binary.AppendUvarint(dst, s.ID)
	dst = binary.AppendUvarint(dst, uint64(s.Next))
	dst = binary.AppendUvarint(dst, uint64(s.Total))
	if s.MarkResident {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// decodeRecord parses one payload. A crc-clean record with an unknown
// op or malformed fields is corruption, not a torn tail, and recovery
// fails loudly on it.
func decodeRecord(payload []byte) (record, error) {
	r := recReader{buf: payload[1:]}
	rec := record{op: payload[0]}
	switch rec.op {
	case opPut:
		rec.key, rec.ver, rec.val = r.entry()
	case opMaxVer:
		rec.ver = r.uvarint()
	case opDrop, opReset, opResident, opRevoke:
	case opCursor:
		rec.sess = r.session()
	case opDone:
		rec.sess.ID = r.uvarint()
	default:
		return rec, fmt.Errorf("unknown wal op %d", rec.op)
	}
	if r.err != nil {
		return rec, fmt.Errorf("malformed wal record op %d: %w", rec.op, r.err)
	}
	return rec, nil
}

// frameAt reports the length of the intact record starting at buf[0]:
// a complete header, a non-empty in-bounds body and a matching
// checksum. ok=false is a torn or corrupt frame.
func frameAt(buf []byte) (n int, ok bool) {
	if len(buf) < walHeaderLen {
		return 0, false
	}
	n = int(binary.LittleEndian.Uint32(buf[0:4]))
	if n == 0 || n > maxRecord || len(buf) < walHeaderLen+n {
		return 0, false
	}
	payload := buf[walHeaderLen : walHeaderLen+n]
	return n, crc32.ChecksumIEEE(payload) == binary.LittleEndian.Uint32(buf[4:8])
}

// replayRecords applies every intact record of a WAL image to pt and
// returns how many there were and where the intact prefix ends. A bad
// frame with nothing intact after it is the torn tail (good < len(buf),
// no error); a bad frame FOLLOWED by an intact record is mid-log
// corruption — acked data would be silently dropped by truncating
// there, so it is an error naming the offset.
func replayRecords(buf []byte, pt *Partition) (records, good int, err error) {
	for good < len(buf) {
		n, ok := frameAt(buf[good:])
		if !ok {
			for next := good + 1; next < len(buf); next++ {
				if _, ok := frameAt(buf[next:]); ok {
					return 0, 0, fmt.Errorf("wal corrupt at offset %d (an intact record follows at %d)", good, next)
				}
			}
			break
		}
		rec, err := decodeRecord(buf[good+walHeaderLen : good+walHeaderLen+n])
		if err != nil {
			return 0, 0, fmt.Errorf("wal offset %d: %w", good, err)
		}
		pt.apply(&rec)
		records++
		good += walHeaderLen + n
	}
	return records, good, nil
}

// replayWAL replays the WAL file at path into pt, truncates any torn
// tail, and returns the file open in append mode (every write lands at
// the current end, also after compaction truncates it) plus the number
// of records replayed.
func replayWAL(path string, pt *Partition) (*os.File, int, error) {
	buf, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, 0, fmt.Errorf("wal read: %w", err)
	}
	records, good, err := replayRecords(buf, pt)
	if err != nil {
		return nil, 0, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	if good != len(buf) {
		if err := f.Truncate(int64(good)); err != nil {
			_ = f.Close()
			return nil, 0, fmt.Errorf("wal truncate torn tail: %w", err)
		}
	}
	return f, records, nil
}

// recReader decodes record and snapshot fields with a sticky error.
// Values are copied out of the file image so the image can be freed.
type recReader struct {
	buf []byte
	err error
}

func (r *recReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.err = fmt.Errorf("truncated uvarint")
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

func (r *recReader) bytes() []byte {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.buf)) {
		r.err = fmt.Errorf("length %d exceeds remaining %d bytes", n, len(r.buf))
		return nil
	}
	b := r.buf[:n]
	r.buf = r.buf[n:]
	return b
}

func (r *recReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.buf) == 0 {
		r.err = fmt.Errorf("missing byte field")
		return 0
	}
	b := r.buf[0]
	r.buf = r.buf[1:]
	return b
}

func (r *recReader) entry() (key string, ver uint64, val []byte) {
	key = string(r.bytes())
	ver = r.uvarint()
	b := r.bytes()
	val = make([]byte, len(b))
	copy(val, b)
	return key, ver, val
}

func (r *recReader) session() Session {
	s := Session{ID: r.uvarint()}
	s.Next = uint32(r.uvarint())
	s.Total = uint32(r.uvarint())
	s.MarkResident = r.byte() == 1
	return s
}
