package node

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/durable"
	"repro/internal/transport"
)

// Message kinds of the node protocol, carried in transport.Message.Kind.
// Kinds below 64 are node-to-node traffic; kinds from 64 are control
// RPCs issued by rfhctl (and the fleet harness) against a single node.
const (
	// KindGet is a query for one key. Origin carries the roster index
	// where the query entered the cluster, Hops the forwarding count so
	// far. Replies: StatusOK with the value, StatusNotFound, or
	// StatusError.
	KindGet uint8 = 1
	// KindPut stores one key/value pair; non-primary receivers proxy it
	// to the primary with Hops 1. The StatusOK reply carries the stamped
	// version in Version and the ascending ack set in Value. On a
	// proxied request, Cursor = putDelegate says the forwarder — Origin,
	// its roster index — holds a resident copy and offers to apply the
	// write itself; Cursor 0 makes no offer and Origin means nothing. On
	// the reply, Cursor = putDelegate says the primary accepted: it did
	// not sync the forwarder, the ack set leaves it out, and the
	// forwarder applies the write, adds itself and makes the W decision
	// before it answers its client. Without that flag the forwarder
	// applies nothing, so a primary that ignores the offer stays correct.
	KindPut uint8 = 2
	// KindSync is the primary's propagation of one versioned write to
	// the other replica holders (all but a forwarder it left its copy
	// to, see KindPut). A StatusOK reply means the holder
	// durably applied (or already had) that version and counts toward
	// the write quorum; StatusRetry means the holder is not resident and
	// needs a partition ship (a transfer session) first. Quorum reads
	// also reuse it to push the winning version to stale holders
	// (read-repair).
	KindSync uint8 = 3

	// Kind 4 is retired: it shipped a small partition in one frame,
	// which a one-chunk transfer session (KindXferBegin) now does.

	// KindDrop tells a holder to discard its copy of a partition
	// (migration victim, suicide).
	KindDrop uint8 = 5
	// KindStats is the end-of-epoch broadcast: Origin is the sender's
	// roster index, Epoch the epoch the stats describe, Value the
	// encoded statsBlob.
	KindStats uint8 = 6
	// KindPing is a liveness probe; the reply is an empty StatusOK.
	KindPing uint8 = 7
	// KindVer is a quorum read's version probe: the coordinator asks a
	// holder what version of one key it physically has. The reply
	// carries the local value and its version (Version 0 + StatusNotFound
	// for a key absent from a resident partition); StatusRetry means the
	// holder is not resident and has no authoritative answer.
	KindVer uint8 = 8

	// KindXferBegin opens (or re-opens) a transfer session — every
	// partition ship is one. Session carries the session id, Version the
	// source partition's version watermark, Value the begin blob (total
	// chunks, a flags byte — completion marks the target resident; the
	// plan is a delta against the content the probe reported — then the
	// only chunk of a one-chunk plan). A plan of at most one chunk is a
	// whole session in this one message: the target begins, applies the
	// carried chunk and closes, and answers xferComplete. Otherwise the
	// StatusOK reply's Cursor is the next chunk the target wants — 0 for
	// a fresh session, higher when the target recovered a resume cursor,
	// xferComplete when the session already finished (replayed begin).
	// StatusNotFound refuses a delta whose probed content is gone (drop,
	// reset or restart since the probe): the source probes and plans
	// again.
	KindXferBegin uint8 = 9
	// KindXferChunk carries one chunk of entries: Cursor is the chunk
	// index, Value the entry block. The reply echoes the next wanted
	// chunk in Cursor; a stale or duplicate chunk is acked without
	// re-applying (the cursor only moves forward). StatusNotFound means
	// the target does not know the session and the source must plan
	// again.
	KindXferChunk uint8 = 10
	// KindXferCursor is the probe: the source asks where the target's
	// cursor stands for a session (before planning, and after faults or
	// a restart on either side). Reply as for KindXferBegin. A
	// StatusNotFound reply (unknown session) carries the target's
	// version watermark in Version and, in Value, the transfer-info blob:
	// the top digest of what the target physically holds, resident or
	// not. It is the planning handshake.
	KindXferCursor uint8 = 11
	// KindXferDone closes a session: the target checks every chunk
	// arrived, applies the completion side effects (residency, version
	// watermark), and retires the session id. StatusRetry + Cursor=next
	// means chunks are still missing and the source must back-fill.
	KindXferDone uint8 = 12

	// Kinds 13, 14 and 15 are retired: they carried the anti-entropy
	// pull walk (sub-digests, backflow pushes, fetches), which
	// non-marking transfer sessions now do (see ae.go).

	// KindXferOffer settles the top buckets a plan cannot decide from
	// the digests alone — divergent, and populated on both sides. Value
	// is an entry block of the source's (key, version) pairs in those
	// buckets with empty values; the StatusOK reply's Value is the want
	// blob: the indexes of the pairs the target lacks or holds older.
	// Only those entries ship.
	KindXferOffer uint8 = 16

	// KindEpochFlush makes the node broadcast its epoch stats (phase A
	// of the two-phase tick).
	KindEpochFlush uint8 = 64
	// KindEpochRun makes the node run its epoch decision step (phase B).
	KindEpochRun uint8 = 65
	// KindDump returns the node's DumpInfo as JSON in Value.
	KindDump uint8 = 66
)

// KindNames maps every message kind to its wire name, for traces,
// fault-plan matching, and the dispatch regression test. The exhaustive
// annotation means a new Kind* constant cannot merge without an entry
// here — the codec is kind-generic, so this registry is where tooling
// discovers the protocol's vocabulary.
//
//lint:exhaustive
var KindNames = map[uint8]string{
	KindGet:        "get",
	KindPut:        "put",
	KindSync:       "sync",
	KindDrop:       "drop",
	KindStats:      "stats",
	KindPing:       "ping",
	KindVer:        "ver",
	KindXferBegin:  "xfer-begin",
	KindXferChunk:  "xfer-chunk",
	KindXferCursor: "xfer-cursor",
	KindXferDone:   "xfer-done",
	KindXferOffer:  "xfer-offer",
	KindEpochFlush: "epoch-flush",
	KindEpochRun:   "epoch-run",
	KindDump:       "dump",
}

// putDelegate is the Cursor flag of a proxied KindPut: the forwarder's
// offer to apply its own copy on the request, the primary's acceptance
// on the reply.
const putDelegate = 1

// xferComplete is the Cursor sentinel a transfer-session reply carries
// when the session has already completed: no chunk index is ever this
// large (chunk counts are uint32). It is the state machine's own
// "already finished" cursor, carried on the wire unchanged.
const xferComplete = durable.CursorComplete

// partitionCounters is one partition's per-epoch observation at one
// node: queries that entered the cluster here (origin), queries
// forwarded through here (transit), queries served here (served) and
// served queries beyond the replica's per-epoch capacity (overflow).
type partitionCounters struct {
	partition int
	origin    int
	transit   int
	served    int
	overflow  int
}

// placementClaim is a primary's end-of-epoch statement of a partition's
// replica set. Peers fold claims into their views, which re-converges
// any drift (e.g. after asymmetric suspicion).
type placementClaim struct {
	partition int
	primary   int
	replicas  []int // ascending roster indexes
}

// aeRoot is one partition's digest root as a holder piggybacks it on
// the KindStats broadcast on anti-entropy epochs (see ae.go).
type aeRoot struct {
	partition int
	root      uint64
}

// statsBlob is the payload of one KindStats broadcast.
type statsBlob struct {
	counters []partitionCounters // ascending partition order
	claims   []placementClaim    // ascending partition order
	roots    []aeRoot            // ascending partition order; AE epochs only
}

// appendStats encodes a statsBlob.
func appendStats(dst []byte, b *statsBlob) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b.counters)))
	for _, c := range b.counters {
		dst = binary.AppendUvarint(dst, uint64(c.partition))
		dst = binary.AppendUvarint(dst, uint64(c.origin))
		dst = binary.AppendUvarint(dst, uint64(c.transit))
		dst = binary.AppendUvarint(dst, uint64(c.served))
		dst = binary.AppendUvarint(dst, uint64(c.overflow))
	}
	dst = binary.AppendUvarint(dst, uint64(len(b.claims)))
	for _, cl := range b.claims {
		dst = binary.AppendUvarint(dst, uint64(cl.partition))
		dst = binary.AppendUvarint(dst, uint64(cl.primary))
		dst = binary.AppendUvarint(dst, uint64(len(cl.replicas)))
		for _, s := range cl.replicas {
			dst = binary.AppendUvarint(dst, uint64(s))
		}
	}
	// The root section is always present (count 0 outside AE epochs)
	// so decodeStats's trailing-byte check stays exact. Roots ride as
	// fixed 8-byte words: uvarint would only pessimise random hashes.
	dst = binary.AppendUvarint(dst, uint64(len(b.roots)))
	for _, r := range b.roots {
		dst = binary.AppendUvarint(dst, uint64(r.partition))
		dst = binary.BigEndian.AppendUint64(dst, r.root)
	}
	return dst
}

// uvarintReader decodes a sequence of uvarints with a sticky error.
type uvarintReader struct {
	buf []byte
	err error
}

func (r *uvarintReader) next() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.err = fmt.Errorf("node: truncated or malformed uvarint")
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// nextInt decodes a uvarint bounded by max (guarding counts read from
// the wire against allocation bombs). It returns 0 on any error so
// callers can never size an allocation from an unvalidated value.
func (r *uvarintReader) nextInt(max int) int {
	v := r.next()
	if r.err != nil {
		return 0
	}
	if v > uint64(max) {
		r.err = fmt.Errorf("node: wire value %d exceeds bound %d", v, max)
		return 0
	}
	return int(v)
}

// decodeStats parses a KindStats payload. partitions and peers bound
// the indexes a well-formed blob may mention.
func decodeStats(buf []byte, partitions, peers int) (*statsBlob, error) {
	r := &uvarintReader{buf: buf}
	b := &statsBlob{}
	n := r.nextInt(partitions)
	for i := 0; i < n && r.err == nil; i++ {
		c := partitionCounters{
			partition: r.nextInt(partitions - 1),
			origin:    int(r.next()),
			transit:   int(r.next()),
			served:    int(r.next()),
			overflow:  int(r.next()),
		}
		b.counters = append(b.counters, c)
	}
	m := r.nextInt(partitions)
	for i := 0; i < m && r.err == nil; i++ {
		cl := placementClaim{
			partition: r.nextInt(partitions - 1),
			primary:   r.nextInt(peers - 1),
		}
		k := r.nextInt(peers)
		for j := 0; j < k && r.err == nil; j++ {
			cl.replicas = append(cl.replicas, r.nextInt(peers-1))
		}
		b.claims = append(b.claims, cl)
	}
	rn := r.nextInt(partitions)
	for i := 0; i < rn && r.err == nil; i++ {
		b.roots = append(b.roots, aeRoot{partition: r.nextInt(partitions - 1), root: r.word()})
	}
	if r.err != nil {
		return nil, r.err
	}
	if len(r.buf) != 0 {
		return nil, fmt.Errorf("node: %d trailing bytes after stats blob", len(r.buf))
	}
	return b, nil
}

// word consumes one fixed 8-byte big-endian word.
func (r *uvarintReader) word() uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.buf) < 8 {
		r.err = fmt.Errorf("node: 8-byte word truncated (%d bytes left)", len(r.buf))
		return 0
	}
	w := binary.BigEndian.Uint64(r.buf)
	r.buf = r.buf[8:]
	return w
}

// readAEDigest consumes one embedded AE digest (as written by
// appendAEDigest) from the reader: leaf count, fixed 8-byte leaves,
// fixed 8-byte root.
func (r *uvarintReader) readAEDigest() (leaves []uint64, root uint64) {
	const maxLeaves = 1 << 12
	n := r.nextInt(maxLeaves)
	if r.err != nil {
		return nil, 0
	}
	if len(r.buf) < 8*(n+1) {
		r.err = fmt.Errorf("node: AE digest truncated (%d bytes for %d leaves + root)", len(r.buf), n)
		return nil, 0
	}
	leaves = make([]uint64, n)
	for i := range leaves {
		leaves[i] = binary.BigEndian.Uint64(r.buf[8*i:])
	}
	root = binary.BigEndian.Uint64(r.buf[8*n:])
	r.buf = r.buf[8*(n+1):]
	return leaves, root
}

// appendEntries encodes an entry block (one transfer chunk, or an
// offer). decodeEntries is the inverse. The buffer is
// sized once up front: grown by doubling from nil, a 12 KB chunk
// allocates four times its size on the way, and a replica-movement
// epoch encodes every partition it ships.
func appendEntries(dst []byte, entries []durable.Entry) []byte {
	dst = slices.Grow(dst, encodedEntriesLen(entries))
	dst = binary.AppendUvarint(dst, uint64(len(entries)))
	for _, e := range entries {
		dst = binary.AppendUvarint(dst, uint64(len(e.Key)))
		dst = append(dst, e.Key...)
		dst = binary.AppendUvarint(dst, e.Ver)
		dst = binary.AppendUvarint(dst, uint64(len(e.Val)))
		dst = append(dst, e.Val...)
	}
	return dst
}

// encodedEntriesLen returns len(appendEntries(nil, entries)) without
// materialising the encoding — the delta planner uses it to price what
// a filtered plan avoided shipping.
func encodedEntriesLen(entries []durable.Entry) int {
	n := uvarintLen(uint64(len(entries)))
	for _, e := range entries {
		n += uvarintLen(uint64(len(e.Key))) + len(e.Key)
		n += uvarintLen(e.Ver)
		n += uvarintLen(uint64(len(e.Val))) + len(e.Val)
	}
	return n
}

// uvarintLen is the encoded size of v under binary.AppendUvarint.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// Flags of the KindXferBegin payload.
const (
	xferMark  = 1 << 0 // completion marks the target resident
	xferDelta = 1 << 1 // the plan ships only what the probed content lacked
)

// appendXferBegin encodes a KindXferBegin payload: the session's total
// chunk count, the flags byte, and — in a one-chunk plan only — that
// chunk's entry block.
func appendXferBegin(dst []byte, total uint32, markResident, delta bool, chunk []durable.Entry) []byte {
	dst = binary.AppendUvarint(dst, uint64(total))
	flags := byte(0)
	if markResident {
		flags |= xferMark
	}
	if delta {
		flags |= xferDelta
	}
	dst = append(dst, flags)
	if total == 1 {
		dst = appendEntries(dst, chunk)
	}
	return dst
}

// decodeXferBegin parses a KindXferBegin payload. chunk is the carried
// entry block of a one-chunk plan, nil for any other total.
func decodeXferBegin(buf []byte) (total uint32, markResident, delta bool, chunk []durable.Entry, err error) {
	r := &uvarintReader{buf: buf}
	t := r.next()
	if r.err != nil {
		return 0, false, false, nil, r.err
	}
	if t > 1<<32-1 {
		return 0, false, false, nil, fmt.Errorf("node: transfer chunk count %d overflows uint32", t)
	}
	if len(r.buf) == 0 {
		return 0, false, false, nil, fmt.Errorf("node: transfer begin blob has no flags byte")
	}
	flags := r.buf[0]
	if flags&^(xferMark|xferDelta) != 0 {
		return 0, false, false, nil, fmt.Errorf("node: transfer begin has unknown flags %#x", flags)
	}
	rest := r.buf[1:]
	if t == 1 {
		if chunk, err = decodeEntries(rest); err != nil {
			return 0, false, false, nil, err
		}
	} else if len(rest) != 0 {
		return 0, false, false, nil, fmt.Errorf("node: %d trailing bytes after a %d-chunk transfer begin", len(rest), t)
	}
	return uint32(t), flags&xferMark != 0, flags&xferDelta != 0, chunk, nil
}

// decodeEntries parses an entry block into a key-ordered entry slice.
// A slice (not a map) so callers can merge it with a plain
// deterministic loop — map iteration order is banned by the
// determinism lint.
func decodeEntries(buf []byte) ([]durable.Entry, error) {
	r := &uvarintReader{buf: buf}
	n := r.nextInt(len(buf)) // an entry costs ≥3 bytes, so len(buf) bounds the count
	entries := make([]durable.Entry, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		// The nextInt bound is the buffer length BEFORE the uvarint is
		// consumed, so the explicit remainder checks below are what stop
		// a truncated payload from slicing out of range.
		kl := r.nextInt(len(r.buf))
		if r.err != nil {
			break
		}
		if kl > len(r.buf) {
			return nil, fmt.Errorf("node: entry key truncated (%d bytes declared, %d left)", kl, len(r.buf))
		}
		k := string(r.buf[:kl])
		r.buf = r.buf[kl:]
		ver := r.next()
		vl := r.nextInt(len(r.buf))
		if r.err != nil {
			break
		}
		if vl > len(r.buf) {
			return nil, fmt.Errorf("node: entry value truncated (%d bytes declared, %d left)", vl, len(r.buf))
		}
		v := make([]byte, vl)
		copy(v, r.buf[:vl])
		r.buf = r.buf[vl:]
		entries = append(entries, durable.Entry{Key: k, Ver: ver, Val: v})
	}
	if r.err != nil {
		return nil, r.err
	}
	if len(r.buf) != 0 {
		return nil, fmt.Errorf("node: %d trailing bytes after entry block", len(r.buf))
	}
	return entries, nil
}

// appendAckSet encodes the roster indexes that durably accepted a
// write, for the KindPut response. Callers pass the set ascending so
// the encoding is deterministic.
func appendAckSet(dst []byte, acked []int) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(acked)))
	for _, s := range acked {
		dst = binary.AppendUvarint(dst, uint64(s))
	}
	return dst
}

// DecodePutReceipt rebuilds the quorum receipt from a KindPut reply:
// the version the primary stamped and the roster indexes that durably
// acked the write. External clients (rfhctl) do not know the roster
// size, so indexes are bounded only loosely; in-cluster paths use
// decodeAckSet with the exact peer count instead.
func DecodePutReceipt(resp *transport.Message) (PutReceipt, error) {
	const loose = 1 << 20
	acked, err := decodeAckSet(resp.Value, loose)
	if err != nil {
		return PutReceipt{}, err
	}
	return PutReceipt{Version: resp.Version, Acked: acked}, nil
}

// appendAEDigest encodes a digest blob (leaf hash vector followed by
// the tree root), as transfer-info replies embed it. Leaves ride as fixed 8-byte words — the
// vector is dense and uvarint would only pessimise random hashes.
func appendAEDigest(dst []byte, leaves []uint64, root uint64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(leaves)))
	for _, l := range leaves {
		dst = binary.BigEndian.AppendUint64(dst, l)
	}
	return binary.BigEndian.AppendUint64(dst, root)
}

// appendXferInfo encodes a transfer-info blob, carried in the Value of
// unknown-session probe replies: the top digest of what the target
// physically holds, resident or not. One byte 0 says it holds nothing
// (every leaf zero); otherwise byte 1 and the aeTop-leaf digest follow.
// Paired with the reply's Version field (the target's maxVer watermark)
// it is everything the source needs to plan.
func appendXferInfo(dst []byte, leaves []uint64, root uint64) []byte {
	if leaves == nil {
		return append(dst, 0)
	}
	return appendAEDigest(append(dst, 1), leaves, root)
}

// decodeXferInfo parses a transfer-info blob. nil leaves mean the target
// holds nothing; a digest is always exactly aeTop leaves wide.
func decodeXferInfo(buf []byte) (leaves []uint64, root uint64, err error) {
	if len(buf) == 0 {
		return nil, 0, fmt.Errorf("node: empty transfer info")
	}
	r := &uvarintReader{buf: buf[1:]}
	switch buf[0] {
	case 0:
	case 1:
		if leaves, root = r.readAEDigest(); r.err == nil && len(leaves) != aeTop {
			return nil, 0, fmt.Errorf("node: transfer info digest has %d leaves, want %d", len(leaves), aeTop)
		}
	default:
		return nil, 0, fmt.Errorf("node: transfer info has unknown flags byte %#x", buf[0])
	}
	if r.err != nil {
		return nil, 0, r.err
	}
	if len(r.buf) != 0 {
		return nil, 0, fmt.Errorf("node: %d trailing bytes after transfer info", len(r.buf))
	}
	return leaves, root, nil
}

// appendXferWant encodes a KindXferOffer reply: the ascending indexes
// of the offered entries the target wants, each as its gap to the one
// before.
func appendXferWant(dst []byte, want []int) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(want)))
	prev := -1
	for _, i := range want {
		dst = binary.AppendUvarint(dst, uint64(i-prev-1))
		prev = i
	}
	return dst
}

// decodeXferWant parses a KindXferOffer reply to an offer of n entries.
func decodeXferWant(buf []byte, n int) ([]int, error) {
	r := &uvarintReader{buf: buf}
	count := r.nextInt(min(n, len(buf)))
	want := make([]int, 0, count)
	prev := -1
	for i := 0; i < count && r.err == nil; i++ {
		if prev >= n-1 {
			return nil, fmt.Errorf("node: transfer want list runs past an offer of %d", n)
		}
		prev += 1 + r.nextInt(n-prev-2)
		want = append(want, prev)
	}
	if r.err != nil {
		return nil, r.err
	}
	if len(r.buf) != 0 {
		return nil, fmt.Errorf("node: %d trailing bytes after transfer want list", len(r.buf))
	}
	return want, nil
}

// decodeAckSet parses a KindPut response's ack set. peers bounds both
// the count and every index; the count is also bounded by the buffer
// (an index costs ≥1 byte), so DecodePutReceipt's loose bound cannot
// size an allocation from a few bytes. The set has room for one more
// index: a forwarder the primary delegated its copy to adds itself.
func decodeAckSet(buf []byte, peers int) ([]int, error) {
	r := &uvarintReader{buf: buf}
	n := r.nextInt(min(peers, len(buf)))
	acked := make([]int, 0, n+1)
	for i := 0; i < n && r.err == nil; i++ {
		acked = append(acked, r.nextInt(peers-1))
	}
	if r.err != nil {
		return nil, r.err
	}
	if len(r.buf) != 0 {
		return nil, fmt.Errorf("node: %d trailing bytes after ack set", len(r.buf))
	}
	return acked, nil
}
