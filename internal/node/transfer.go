package node

import (
	"fmt"

	"repro/internal/durable"
	"repro/internal/transport"
)

// Chunked replica transfers (the zrepl step model): instead of one
// KindStore frame carrying a whole partition, the source freezes a
// snapshot, slices it into chunks, and drives a session of
// probe → begin → chunk* → done exchanges. The TARGET owns the resume
// cursor — the next chunk index it wants — persists it (durable
// engine) and echoes it on every reply, so the source never guesses:
// after any fault, duplicate or restart it adopts the target's cursor
// and continues from there. Repeated invocation is monotone (the
// cursor only advances) and converges. While a session is in flight
// the source holds the partition's snapshot against compaction; the
// hold is leased — a session making no progress for
// TransferLeaseEpochs epochs is abandoned and the hold released.
//
// Delta planning: the first pump of a session probes the target
// (KindXferCursor) before freezing anything. The unknown-session reply
// carries the target's version watermark plus its transfer info
// (residency + live AE top digest), and the source plans from it:
//
//   - Target resident → a filtered plan: entries strictly above the
//     watermark ship, plus the full content of every top bucket where
//     the target's digest disagrees with the source's tree restricted
//     to entries at-or-below the watermark (a hole below the watermark
//     always dirties its bucket, so bucket-filtered shipping is exactly
//     as safe as full). With no divergent bucket only the above-
//     watermark entries ship — the repeat-migration fast path.
//   - Target not resident (fresh holder, restarted node, stale/absent
//     digest) → full frozen snapshot. A non-resident watermark is never
//     trusted: begins durably adopt the source's maxVer up front, so it
//     does not describe content coverage.
//
// A delta session never marks the target resident on completion — the
// target already was resident, and a session invalidated mid-flight
// (drop, restart) must not bless a partial subset as authoritative.
//
// Lock order: n.mu (either mode) may be held while taking n.xmu, never
// the reverse; no lock is held across a transport send — a pump claims
// a session under xmu (busy flag), sends lock-free, and settles under
// xmu again.

// maxChunkBytes caps one chunk's payload regardless of the entry-count
// bound, so a few giant values cannot push a chunk past frame limits.
const maxChunkBytes = 256 << 10

// Session id layout: [8 bits roster index+1][16 bits boot generation]
// [40 bits per-boot sequence]. Ids must be unique across the source's
// whole lifetime INCLUDING process restarts — targets durably persist
// completed session ids, so a restarted source re-issuing an old id
// for the same (partition, target) would be answered "already
// complete" and ship nothing while reporting a durability ack. The
// generation comes from the durable engine's persisted boot counter
// (memory-mode nodes keep generation 0: they have no disk state to
// collide over, and the harness's Crash/Restart keeps the Node object
// and therefore the sequence). The generation wraps at 2^16 boots and
// the sequence at 2^40 sessions per boot — both far past the bounded
// done-list's 8-entry memory on any target.
const (
	xferGenShift = 40
	xferGenMask  = 1<<16 - 1
	xferSeqMask  = 1<<xferGenShift - 1
)

// TransferStats counts the node's outbound transfer-session activity
// since start. Resumed increments when a session continues from a
// nonzero cursor the target reported after an interruption — the
// signal the crash-mid-transfer scenarios assert on. DeltaSessions
// and FullSessions split planned sessions by outcome; BytesSent counts
// payload bytes actually shipped (chunks + one-frame snapshots) and
// BytesSaved the payload bytes delta planning avoided shipping.
type TransferStats struct {
	Started       int64 `json:"started"`
	Completed     int64 `json:"completed"`
	Expired       int64 `json:"expired"`
	Resumed       int64 `json:"resumed"`
	ChunksSent    int64 `json:"chunks_sent"`
	OneFrame      int64 `json:"one_frame"`
	DeltaSessions int64 `json:"delta_sessions"`
	FullSessions  int64 `json:"full_sessions"`
	BytesSent     int64 `json:"bytes_sent"`
	BytesSaved    int64 `json:"bytes_saved"`
}

// xferSession is one outbound chunked transfer of partition p toward
// target. The snapshot is frozen (and sliced) at planning time — the
// first pump's probe — not at session creation, so the plan can freeze
// only the delta the target actually needs.
type xferSession struct {
	id     uint64
	p      int
	target int
	mark   bool               // completion marks the target resident (full plans only)
	part   *durable.Partition // the partition the snapshot (and its hold) came from

	planned bool // the delta-planning probe ran; chunks and maxVer are set
	delta   bool // the plan shipped a watermark/digest-filtered subset
	maxVer  uint64
	chunks  [][]durable.Entry
	saved   int64 // payload bytes the delta plan avoided shipping

	begun       bool   // target has acked a begin for this session
	next        uint32 // next chunk to send (the target's cursor)
	busy        bool   // claimed by a running pump
	interrupted bool   // last pump ended early (send failure / no reply)
	idleEpochs  int    // lease age: epochs without cursor progress
	lastNext    uint32
}

// TransferStats returns the node's cumulative outbound transfer
// counters.
func (n *Node) TransferStats() TransferStats {
	n.xmu.Lock()
	defer n.xmu.Unlock()
	return n.xstats
}

// startTransferLocked opens an outbound session for partition p toward
// target, takes the compaction hold and returns the session; the
// snapshot itself is frozen later, by the first pump's delta-planning
// probe. Callers hold n.mu; an existing live session for the same
// (partition, target) pair is returned as is — its frozen state is
// already on the way, and syncs/read-repair heal anything newer.
func (n *Node) startTransferLocked(p, target int, mark bool) *xferSession {
	n.xmu.Lock()
	defer n.xmu.Unlock()
	for _, s := range n.xfers {
		if s.p == p && s.target == target {
			return s
		}
	}
	part := n.store.Part(p)
	part.Hold()
	n.xseq++
	s := &xferSession{
		id:     uint64(n.self+1)<<56 | (n.xgen&xferGenMask)<<xferGenShift | (n.xseq & xferSeqMask),
		p:      p,
		target: target,
		mark:   mark,
		part:   part,
	}
	n.xfers = append(n.xfers, s)
	n.xstats.Started++
	return s
}

// planSession freezes the session's chunk set from the target's probe
// reply: the target's pre-session version watermark and its transfer
// info (residency flag + live AE top digest). Returns the frozen
// chunks, the covering maxVer, whether the plan is a delta (a
// filtered subset), and the encoded payload bytes the filter avoided.
// Runs lock-free on the owning pump; the caller writes the plan back
// under xmu.
func (n *Node) planSession(s *xferSession, watermark uint64, info []byte) (chunks [][]durable.Entry, maxVer uint64, delta bool, saved int64) {
	entries, ver := s.part.Entries()
	resident, leaves, _, err := decodeXferInfo(info)
	if err != nil || !resident || len(leaves) != aeTop {
		// Non-resident target (or a malformed/absent digest): its
		// watermark does not describe content coverage — begins adopt the
		// source's maxVer durably before any entry lands — so nothing
		// below it can be skipped. Ship the full frozen snapshot.
		return sliceChunks(entries, n.cfg.TransferChunkEntries), ver, false, 0
	}
	below := NewAETree()
	for _, e := range entries {
		if e.Ver <= watermark {
			below.Apply(e.Key, e.Ver, e.Val)
		}
	}
	mine := below.Leaves()
	var divergent [aeTop]bool
	for b := range divergent {
		divergent[b] = leaves[b] != mine[b]
	}
	// Ship everything above the watermark plus the full content of the
	// buckets that disagree below it. A hole or stale entry at the target
	// always dirties its covering bucket, so this is exactly as safe as a
	// full snapshot.
	kept := make([]durable.Entry, 0, len(entries))
	for _, e := range entries {
		if e.Ver > watermark || divergent[aeBucket(e.Key)] {
			kept = append(kept, e)
		}
	}
	if len(kept) == len(entries) {
		// A plan that keeps everything anyway (say a resident-but-empty
		// target at watermark 0) is a full plan, not a delta: it keeps its
		// residency-marking power and counts nothing as saved.
		return sliceChunks(entries, n.cfg.TransferChunkEntries), ver, false, 0
	}
	saved = int64(encodedEntriesLen(entries) - encodedEntriesLen(kept))
	return sliceChunks(kept, n.cfg.TransferChunkEntries), ver, true, saved
}

// oneFrameSnapshot encodes a partition for a single KindStore frame,
// when its payload is at or under the one-frame threshold.
func (n *Node) oneFrameSnapshot(part *durable.Partition) ([]byte, bool) {
	if part.Stats().Bytes > n.cfg.SnapshotOneFrameBytes {
		return nil, false
	}
	entries, _ := part.Entries()
	return appendEntries(nil, entries), true
}

// sliceChunks splits a frozen entry slice into chunks of at most
// maxEntries entries and maxChunkBytes payload bytes (whichever limit
// bites first; a single oversized entry still travels alone).
func sliceChunks(entries []durable.Entry, maxEntries int) [][]durable.Entry {
	var chunks [][]durable.Entry
	start, bytes := 0, 0
	for i, e := range entries {
		sz := len(e.Key) + len(e.Val)
		if i > start && (i-start >= maxEntries || bytes+sz > maxChunkBytes) {
			chunks = append(chunks, entries[start:i])
			start, bytes = i, 0
		}
		bytes += sz
	}
	if start < len(entries) {
		chunks = append(chunks, entries[start:])
	}
	return chunks
}

// clearTransfersLocked drops every outbound session without touching
// the store — the Crash path, where the store is being discarded
// wholesale and the "process" forgets its in-flight work.
// Callers hold n.mu.
func (n *Node) clearTransfersLocked() {
	n.xmu.Lock()
	n.xfers = nil
	n.xmu.Unlock()
}

// pumpTransfers drives every outbound session one round, in session
// order (deterministic under Fanout=1 harnesses), and ages the leases:
// a session whose cursor made no progress for TransferLeaseEpochs
// consecutive pumps is abandoned and its snapshot hold released.
// Callers must not hold n.mu.
//
//lint:requires-unlocked n.mu
func (n *Node) pumpTransfers() {
	n.xmu.Lock()
	sessions := append([]*xferSession(nil), n.xfers...)
	n.xmu.Unlock()
	for _, s := range sessions {
		n.pumpSession(s)
	}
	n.xmu.Lock()
	kept := n.xfers[:0]
	for _, s := range n.xfers {
		if s.busy {
			// A concurrent pump (shipPartition / TransferPartition) has
			// claimed this session and only writes its advanced cursor
			// back at settle, so s.next is stale here — aging it could
			// expire a session that is actively progressing, yanking the
			// snapshot hold out from under the pump. Aging resumes on
			// the next round, after the pump settles.
			kept = append(kept, s)
			continue
		}
		if s.next == s.lastNext {
			s.idleEpochs++
		} else {
			s.idleEpochs = 0
		}
		s.lastNext = s.next
		if s.idleEpochs > n.cfg.TransferLeaseEpochs {
			s.part.Release()
			n.xstats.Expired++
			continue
		}
		kept = append(kept, s)
	}
	n.xfers = kept
	n.xmu.Unlock()
}

// shipPartition heals a holder that answered StatusRetry on a sync —
// it has no resident copy to apply onto. The shipped state must
// contain version ver (the write being acked): a true return is a
// durability ack for that write, not just "a snapshot landed". Under
// the one-frame threshold the partition travels as a single KindStore
// message encoded at call time, which is after the stamp and so always
// covers ver. Above it a chunked session is driven to completion
// synchronously — and if the live session for this (partition, target)
// was frozen before ver was stamped, it is completed and retired first
// and a second, freshly frozen session carries the write. Callers must
// not hold n.mu.
//
//lint:requires-unlocked n.mu
func (n *Node) shipPartition(p, target int, ver uint64) bool {
	n.mu.RLock()
	part := n.store.Part(p)
	n.mu.RUnlock()
	if snap, ok := n.oneFrameSnapshot(part); ok {
		resp, err := n.tr.Send(n.peerAddr(target), &transport.Message{
			Kind: KindStore, Partition: uint32(p), Value: snap,
		})
		if err != nil || resp.Status != transport.StatusOK {
			return false
		}
		n.xmu.Lock()
		n.xstats.OneFrame++
		n.xstats.BytesSent += int64(len(snap))
		n.xmu.Unlock()
		return true
	}
	// Round 2 always covers: a session planned now freezes against the
	// shard's maxVer, which the stamp already advanced past ver. The
	// coverage check reads the session's maxVer AFTER the pump, because
	// the plan (and therefore the freeze) happens inside the first pump.
	for round := 0; round < 2; round++ {
		n.mu.RLock()
		sess := n.startTransferLocked(p, target, true)
		n.mu.RUnlock()
		if !n.pumpSession(sess) {
			return false
		}
		n.xmu.Lock()
		covered := sess.maxVer >= ver
		n.xmu.Unlock()
		if covered {
			return true
		}
	}
	return false
}

// TransferPartition synchronously ships partition p to target through
// a chunked session (opening one if none is live) and reports whether
// the session completed. The harness scenarios and the sync-fallback
// path use it; RunEpoch pumps sessions opportunistically instead.
// Callers must not hold n.mu.
//
//lint:requires-unlocked n.mu
func (n *Node) TransferPartition(p, target int) bool {
	n.mu.RLock()
	sess := n.startTransferLocked(p, target, true)
	n.mu.RUnlock()
	return n.pumpSession(sess)
}

// pumpSession drives one session as far as it will go in a single
// round: (re)begin or probe for the target's cursor, stream chunks
// from there, and close with done. Any send failure ends the round —
// the session stays, the cursor survives on the target, and the next
// pump resumes. Returns true when the session completed (and was
// removed). Callers must not hold n.mu or n.xmu.
//
//lint:requires-unlocked n.mu
func (n *Node) pumpSession(s *xferSession) bool {
	n.xmu.Lock()
	if s.busy {
		n.xmu.Unlock()
		return false
	}
	alive := false
	for _, live := range n.xfers {
		if live == s {
			alive = true
		}
	}
	if !alive {
		n.xmu.Unlock()
		return false
	}
	s.busy = true
	// Work on local copies of the cursor state: the lease ager reads the
	// session under xmu while a pump is in flight, so the pump must not
	// scribble on the struct lock-free. Written back at settle.
	begun, next, wasInterrupted := s.begun, s.next, s.interrupted
	planned := s.planned
	n.xmu.Unlock()

	addr := n.peerAddr(s.target)
	if !planned {
		// Delta-planning probe: ask the target for its watermark and
		// transfer info before freezing anything, then freeze only what
		// the plan says must ship.
		resp, err := n.tr.Send(addr, &transport.Message{
			Kind: KindXferCursor, Partition: uint32(s.p), Session: s.id,
		})
		if err != nil {
			n.xmu.Lock()
			s.busy, s.interrupted = false, true
			n.xmu.Unlock()
			return false
		}
		var (
			chunks [][]durable.Entry
			maxVer uint64
			delta  bool
			saved  int64
		)
		switch resp.Status {
		case transport.StatusNotFound:
			// The expected reply: the target does not know the session,
			// and its answer carries the pre-session watermark plus the
			// residency/digest blob the plan needs.
			chunks, maxVer, delta, saved = n.planSession(s, resp.Version, resp.Value)
		case transport.StatusOK:
			// The target already tracks this id (defensive — ids are
			// unique across boots): plan a full session and adopt the
			// cursor it reports.
			chunks, maxVer, delta, saved = n.planSession(s, 0, nil)
			begun = true
			if resp.Cursor == xferComplete {
				next = uint32(len(chunks))
			} else if c := uint32(resp.Cursor); c <= uint32(len(chunks)) {
				next = c
			}
		default:
			n.xmu.Lock()
			s.busy, s.interrupted = false, true
			n.xmu.Unlock()
			return false
		}
		n.xmu.Lock()
		s.chunks, s.maxVer, s.delta, s.saved = chunks, maxVer, delta, saved
		s.mark = s.mark && !delta
		s.planned = true
		if delta {
			n.xstats.DeltaSessions++
		} else {
			n.xstats.FullSessions++
		}
		n.xstats.BytesSaved += saved
		n.xmu.Unlock()
	}

	completed := false
	interrupted := true
	total := uint32(len(s.chunks))
	sent := int64(0)
	sentBytes := int64(0)
	resumed := false

	// One bounded walk through the session state machine. The loop
	// re-begins at most once per pump (cursor lost at the target), so
	// 2*(total+2) exchanges bound the round even under adversarial
	// replies.
	for step := 0; step < 2*int(total)+4; step++ {
		if !begun {
			resp, err := n.tr.Send(addr, &transport.Message{
				Kind: KindXferBegin, Partition: uint32(s.p), Session: s.id,
				Version: s.maxVer, Value: appendXferBegin(nil, total, s.mark),
			})
			if err != nil || resp.Status != transport.StatusOK {
				break
			}
			begun = true
			if resp.Cursor == xferComplete {
				completed, interrupted = true, false
				break
			}
			if c := uint32(resp.Cursor); c <= total {
				if c > 0 && wasInterrupted {
					resumed = true
				}
				next = c
			}
			continue
		}
		if wasInterrupted && step == 0 {
			// The last round ended mid-session: ask the target where its
			// cursor actually stands before re-sending anything (it may
			// have applied a chunk whose ack we lost, or recovered the
			// cursor from its WAL across a restart).
			resp, err := n.tr.Send(addr, &transport.Message{
				Kind: KindXferCursor, Partition: uint32(s.p), Session: s.id,
			})
			if err != nil {
				break
			}
			if resp.Status == transport.StatusNotFound {
				begun = false // target lost the session: re-begin
				continue
			}
			if resp.Status != transport.StatusOK {
				break
			}
			if resp.Cursor == xferComplete {
				completed, interrupted = true, false
				break
			}
			if c := uint32(resp.Cursor); c <= total {
				if c > 0 {
					resumed = true
				}
				next = c
			}
			continue
		}
		if next < total {
			payload := appendEntries(nil, s.chunks[next])
			resp, err := n.tr.Send(addr, &transport.Message{
				Kind: KindXferChunk, Partition: uint32(s.p), Session: s.id,
				Cursor: uint64(next), Value: payload,
			})
			if err != nil {
				break
			}
			if resp.Status == transport.StatusNotFound {
				begun = false
				continue
			}
			if resp.Status != transport.StatusOK {
				break
			}
			sent++
			sentBytes += int64(len(payload))
			if resp.Cursor == xferComplete {
				completed, interrupted = true, false
				break
			}
			if c := uint32(resp.Cursor); c <= total {
				next = c
			}
			continue
		}
		// Every chunk is at the target: close the session.
		resp, err := n.tr.Send(addr, &transport.Message{
			Kind: KindXferDone, Partition: uint32(s.p), Session: s.id,
		})
		if err != nil {
			break
		}
		switch resp.Status {
		case transport.StatusOK:
			completed, interrupted = true, false
		case transport.StatusRetry:
			if c := uint32(resp.Cursor); c < total {
				next = c
				continue
			}
		case transport.StatusNotFound:
			begun = false
			continue
		default:
			// StatusError: the target could not settle the session this
			// round — end the pump; the session stays for the next one.
		}
		break
	}

	n.xmu.Lock()
	s.busy = false
	s.begun, s.next = begun, next
	s.interrupted = interrupted && !completed
	n.xstats.ChunksSent += sent
	n.xstats.BytesSent += sentBytes
	if resumed {
		n.xstats.Resumed++
	}
	if completed {
		for i, live := range n.xfers {
			if live == s {
				n.xfers = append(n.xfers[:i], n.xfers[i+1:]...)
				s.part.Release()
				n.xstats.Completed++
				break
			}
		}
	}
	n.xmu.Unlock()
	return completed
}

// --- Target-side handlers -------------------------------------------

func (n *Node) handleXferBegin(req *transport.Message) (*transport.Message, error) {
	p, err := n.checkPartition(req.Partition)
	if err != nil {
		return nil, err
	}
	total, mark, err := decodeXferBegin(req.Value)
	if err != nil {
		return nil, err
	}
	n.mu.RLock()
	next, err := n.store.Part(p).BeginInbound(req.Session, total, mark, req.Version)
	n.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	return &transport.Message{Kind: KindXferBegin, Partition: req.Partition, Session: req.Session, Cursor: next}, nil
}

func (n *Node) handleXferChunk(req *transport.Message) (*transport.Message, error) {
	p, err := n.checkPartition(req.Partition)
	if err != nil {
		return nil, err
	}
	if req.Cursor > 1<<32-1 {
		return nil, fmt.Errorf("node %d: transfer chunk index %d overflows uint32", n.cfg.ID, req.Cursor)
	}
	entries, err := decodeSnapshot(req.Value)
	if err != nil {
		return nil, err
	}
	n.mu.RLock()
	next, known, err := n.store.Part(p).ApplyChunk(req.Session, uint32(req.Cursor), entries)
	n.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	if !known {
		return &transport.Message{Kind: KindXferChunk, Partition: req.Partition, Session: req.Session,
			Status: transport.StatusNotFound}, nil
	}
	return &transport.Message{Kind: KindXferChunk, Partition: req.Partition, Session: req.Session, Cursor: next}, nil
}

func (n *Node) handleXferCursor(req *transport.Message) (*transport.Message, error) {
	p, err := n.checkPartition(req.Partition)
	if err != nil {
		return nil, err
	}
	n.mu.RLock()
	part := n.store.Part(p)
	next, known := part.InboundCursor(req.Session)
	n.mu.RUnlock()
	if !known {
		// Unknown session: the reply doubles as the delta-planning
		// handshake — it carries the partition's version watermark plus
		// the residency/digest blob the source plans from.
		maxVer, resident, leaves, root := part.Digest()
		return &transport.Message{Kind: KindXferCursor, Partition: req.Partition, Session: req.Session,
			Status: transport.StatusNotFound, Version: maxVer,
			Value: appendXferInfo(nil, resident, leaves, root)}, nil
	}
	return &transport.Message{Kind: KindXferCursor, Partition: req.Partition, Session: req.Session, Cursor: next}, nil
}

func (n *Node) handleXferDone(req *transport.Message) (*transport.Message, error) {
	p, err := n.checkPartition(req.Partition)
	if err != nil {
		return nil, err
	}
	n.mu.RLock()
	next, known, complete, err := n.store.Part(p).FinishInbound(req.Session)
	n.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	switch {
	case !known:
		return &transport.Message{Kind: KindXferDone, Partition: req.Partition, Session: req.Session,
			Status: transport.StatusNotFound}, nil
	case !complete:
		return &transport.Message{Kind: KindXferDone, Partition: req.Partition, Session: req.Session,
			Status: transport.StatusRetry, Cursor: next}, nil
	default:
		return &transport.Message{Kind: KindXferDone, Partition: req.Partition, Session: req.Session,
			Cursor: xferComplete}, nil
	}
}
