package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
)

// Snapshot file format (one file per partition, installed only by an
// atomic rename of a fully-written temp file):
//
//	magic "RFHS" + format byte 1
//	uvarint maxVer
//	byte resident
//	uvarint entry count, then per entry: key, ver, val (length-prefixed)
//	uvarint session count, then per session: sid, next, total, mark
//	uvarint done count, then per id: sid
//	crc32(everything above) u32 LE
//
// Entries are written in ascending key order so the file bytes are a
// deterministic function of the state.

var snapMagic = []byte{'R', 'F', 'H', 'S', 1}

// appendSnapshot encodes pt's logical state as a snapshot file image.
func appendSnapshot(buf []byte, pt *Partition) []byte {
	buf = append(buf, snapMagic...)
	buf = binary.AppendUvarint(buf, pt.maxVer)
	if pt.resident {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	entries := pt.sortedEntries()
	buf = binary.AppendUvarint(buf, uint64(len(entries)))
	for _, e := range entries {
		buf = appendEntry(buf, e.Key, e.Ver, e.Val)
	}
	buf = binary.AppendUvarint(buf, uint64(len(pt.sessions)))
	for _, s := range pt.sessions {
		buf = appendSession(buf, s)
	}
	buf = binary.AppendUvarint(buf, uint64(len(pt.done)))
	for _, sid := range pt.done {
		buf = binary.AppendUvarint(buf, sid)
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// loadSnapshot restores pt from path; a missing file means "no
// snapshot yet" and leaves pt at its birth state. A present-but-corrupt
// snapshot is real corruption (installs are atomic), so it fails
// loudly rather than silently serving partial state.
func loadSnapshot(path string, pt *Partition) error {
	buf, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("durable: snapshot read: %w", err)
	}
	if err := decodeSnapshot(buf, pt); err != nil {
		return fmt.Errorf("durable: snapshot %s: %w", path, err)
	}
	return nil
}

// decodeSnapshot replays a snapshot image into pt as a sequence of
// apply steps — the file is a compacted log, and loading it is the same
// state machine the WAL drives.
func decodeSnapshot(buf []byte, pt *Partition) error {
	if len(buf) < len(snapMagic)+4 {
		return fmt.Errorf("truncated (%d bytes)", len(buf))
	}
	body, sum := buf[:len(buf)-4], binary.LittleEndian.Uint32(buf[len(buf)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return fmt.Errorf("checksum mismatch")
	}
	if string(body[:len(snapMagic)]) != string(snapMagic) {
		return fmt.Errorf("bad magic")
	}
	r := recReader{buf: body[len(snapMagic):]}
	pt.apply(&record{op: opMaxVer, ver: r.uvarint()})
	if r.byte() == 1 {
		pt.apply(&record{op: opResident})
	} else {
		pt.apply(&record{op: opRevoke})
	}
	for n := r.uvarint(); n > 0 && r.err == nil; n-- {
		rec := record{op: opPut}
		rec.key, rec.ver, rec.val = r.entry()
		if r.err == nil {
			pt.apply(&rec)
		}
	}
	for n := r.uvarint(); n > 0 && r.err == nil; n-- {
		if s := r.session(); r.err == nil {
			pt.apply(&record{op: opCursor, sess: s})
		}
	}
	for n := r.uvarint(); n > 0 && r.err == nil; n-- {
		if sid := r.uvarint(); r.err == nil {
			pt.apply(&record{op: opDone, sess: Session{ID: sid}})
		}
	}
	if r.err != nil {
		return fmt.Errorf("malformed: %w", r.err)
	}
	if len(r.buf) != 0 {
		return fmt.Errorf("%d trailing bytes", len(r.buf))
	}
	return nil
}
