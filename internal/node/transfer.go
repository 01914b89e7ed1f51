package node

import (
	"fmt"
	"slices"

	"repro/internal/durable"
	"repro/internal/transport"
)

// Replica transfers (the zrepl step model): every partition ship —
// replicate and migrate decisions, the StatusRetry heal, rejoin
// re-injection, anti-entropy repair (ae.go) — is a session. The source freezes a snapshot, slices
// it into chunks, and drives probe → begin → chunk* → done exchanges.
// A plan of at most one chunk is probe → begin: the begin carries the
// chunk and the target closes the session before it answers, so a
// small ship costs two round trips. The TARGET owns the resume
// cursor — the next chunk index it wants — persists it (durable
// engine) and echoes it on every reply, so the source never guesses:
// after any fault, duplicate or restart it adopts the target's cursor
// and continues from there. Repeated invocation is monotone (the
// cursor only advances) and converges. While a session is in flight
// the source holds the partition's snapshot against compaction; the
// hold is leased — a session making no progress for
// TransferLeaseEpochs epochs is abandoned and the hold released.
//
// Planning: the first pump of a session probes the target
// (KindXferCursor) before freezing anything. The unknown-session reply
// carries the target's version watermark plus the top digest of what
// it physically holds — resident or not — and the source plans every
// session from it by one rule, key-exact against that content:
//
//   - Entries strictly above the watermark ship: the target has never
//     seen their versions.
//   - Below it, a top bucket whose digest matches the source's tree of
//     its own entries at or below the watermark ships nothing; one the
//     target holds nothing in ships whole.
//   - A divergent bucket populated on both sides costs one offer round
//     (KindXferOffer): the source sends its (key, version) pairs for
//     the bucket, the target answers with those it lacks or holds older,
//     and only those ship.
//
// A plan against an empty target is therefore the full snapshot, and
// the watermark needs no trust: any record it falsely claims dirties
// its bucket. A session marks the target resident exactly when it was
// opened to (decision ships and heals do, rejoin re-injection and
// anti-entropy do not), whatever its plan: a completed session only ever adds to the
// probed content, and that content only grows until the session is
// invalidated. Invalidation is a drop, a reset or a restart at the
// target; the target then answers StatusNotFound, and the source
// probes and plans again. A delta's begin is fenced the same way: the
// target opens it only while the content its probe described is still
// there (durable.Partition.Probe).
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
// and FullSessions split plans by outcome (a session the target
// invalidated plans again); ChunksSent counts the chunks actually
// shipped (a one-chunk begin's included), BytesSent their payload
// bytes plus the offer round's blobs in both directions, and BytesSaved
// the chunk payload bytes planning avoided shipping. An anti-entropy
// session's chunks and bytes count on AEStats instead; every other
// counter includes it.
type TransferStats struct {
	Started       int64 `json:"started"`
	Completed     int64 `json:"completed"`
	Expired       int64 `json:"expired"`
	Resumed       int64 `json:"resumed"`
	ChunksSent    int64 `json:"chunks_sent"`
	DeltaSessions int64 `json:"delta_sessions"`
	FullSessions  int64 `json:"full_sessions"`
	BytesSent     int64 `json:"bytes_sent"`
	BytesSaved    int64 `json:"bytes_saved"`
}

// xferSession is one outbound transfer of partition p toward
// target. The snapshot is frozen (and sliced) at planning time — the
// first pump's probe — not at session creation, so the plan can freeze
// only the delta the target actually needs.
type xferSession struct {
	id     uint64
	p      int
	target int
	mark   bool               // completion marks the target resident
	ae     bool               // an anti-entropy session: its bytes count on AEStats
	part   *durable.Partition // the partition the snapshot (and its hold) came from

	planned bool // a probe reply was planned from; chunks and maxVer are set
	delta   bool // the plan skips entries the probed content already holds
	maxVer  uint64
	chunks  [][]durable.Entry

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
// snapshot itself is frozen later, by the first pump's planning
// probe. Callers hold n.mu; an existing live session for the same
// (partition, target) pair is returned as is — its frozen state is
// already on the way, and syncs/read-repair heal anything newer.
func (n *Node) startTransferLocked(p, target int, mark bool) *xferSession {
	n.xmu.Lock()
	defer n.xmu.Unlock()
	return n.sessionXLocked(p, target, mark, true)
}

// sessionXLocked returns the pair's live session or opens one (see
// liveSessionXLocked). Callers hold n.mu and n.xmu.
func (n *Node) sessionXLocked(p, target int, mark, reuseBusy bool) *xferSession {
	if s := n.liveSessionXLocked(p, target, mark, reuseBusy); s != nil {
		return s
	}
	return n.openSessionXLocked(p, target, mark)
}

// liveSessionXLocked returns the pair's live session that serves a
// ship with this mark — a marking ship never completes through a
// session that leaves its target non-resident — and that no pump holds
// unless reuseBusy, or nil. Callers hold n.xmu.
func (n *Node) liveSessionXLocked(p, target int, mark, reuseBusy bool) *xferSession {
	for _, s := range n.xfers {
		if s.p == p && s.target == target && (s.mark || !mark) && (reuseBusy || !s.busy) {
			return s
		}
	}
	return nil
}

// openSessionXLocked opens a session of partition p toward target and
// takes its compaction hold. Callers hold n.mu and n.xmu.
func (n *Node) openSessionXLocked(p, target int, mark bool) *xferSession {
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

// planSession freezes the session's chunks from the target's probe
// reply: its version watermark and the transfer-info blob of what it
// physically holds. An empty target (or an unreadable answer) gets the
// whole snapshot; any other is filtered by filterPlan. Runs lock-free
// on the owning pump and writes the plan back under xmu; false means
// the offer round could not reach the target and nothing was planned.
func (n *Node) planSession(s *xferSession, addr string, watermark uint64, info []byte) bool {
	entries, maxVer := s.part.Entries()
	kept, roundBytes := entries, int64(0)
	if theirs, _, err := decodeXferInfo(info); err == nil && theirs != nil {
		var ok bool
		if kept, roundBytes, ok = n.filterPlan(s, addr, entries, watermark, theirs); !ok {
			return false
		}
	}
	delta := len(kept) < len(entries)

	n.xmu.Lock()
	s.chunks, s.maxVer, s.delta = sliceChunks(kept, n.cfg.TransferChunkEntries), maxVer, delta
	if delta {
		n.xstats.DeltaSessions++
		n.xstats.BytesSaved += int64(encodedEntriesLen(entries) - encodedEntriesLen(kept))
	} else {
		n.xstats.FullSessions++
	}
	n.bookSentXLocked(s, 0, 0, roundBytes)
	n.xmu.Unlock()
	return true
}

// bookSentXLocked counts what a session put on the wire: an AE
// session's entries and bytes on AEStats, any other's chunks and bytes
// on TransferStats, so each byte is counted once. Callers hold n.xmu.
func (n *Node) bookSentXLocked(s *xferSession, chunks, entries, bytes int64) {
	if s.ae {
		n.aeRepairsN.Add(entries)
		n.aePayloadN.Add(bytes)
		return
	}
	n.xstats.ChunksSent += chunks
	n.xstats.BytesSent += bytes
}

// filterPlan keeps the entries a target lacks, given its watermark and
// the top digest theirs of what it holds: everything above the
// watermark, whole buckets it holds nothing in, and — through one
// offer round to addr — the entries of divergent buckets both sides
// populate that it lacks or holds older. roundBytes is the offer
// round's payload in both directions; ok is false when the round could
// not reach the target.
func (n *Node) filterPlan(s *xferSession, addr string, entries []durable.Entry, watermark uint64, theirs []uint64) (kept []durable.Entry, roundBytes int64, ok bool) {
	below := NewAETree()
	for _, e := range entries {
		if e.Ver <= watermark {
			below.Apply(e.Key, e.Ver, e.Val)
		}
	}
	mine := below.Leaves()
	ship := make([]bool, len(entries))
	var offered []int // entries the target rules on in the offer round
	for i, e := range entries {
		b := aeBucket(e.Key)
		switch {
		case e.Ver > watermark || theirs[b] == 0:
			ship[i] = true
		case theirs[b] != mine[b]:
			offered = append(offered, i)
		}
	}
	if len(offered) > 0 {
		offer := make([]durable.Entry, len(offered))
		for j, i := range offered {
			offer[j] = durable.Entry{Key: entries[i].Key, Ver: entries[i].Ver}
		}
		req := appendEntries(nil, offer)
		resp, err := n.tr.Send(addr, &transport.Message{
			Kind: KindXferOffer, Partition: uint32(s.p), Session: s.id, Value: req,
		})
		if err != nil {
			return nil, 0, false
		}
		roundBytes = int64(len(req) + len(resp.Value))
		want, err := decodeXferWant(resp.Value, len(offer))
		if err != nil || resp.Status != transport.StatusOK {
			want = nil
			for j := range offered {
				want = append(want, j) // no usable answer: ship the whole offer
			}
		}
		for _, j := range want {
			ship[offered[j]] = true
		}
	}
	kept = make([]durable.Entry, 0, len(entries))
	for i, e := range entries {
		if ship[i] {
			kept = append(kept, e)
		}
	}
	return kept, roundBytes, true
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

// pumpTransfers drives every outbound session one round through
// fanOut — in session order under Fanout <= 1 (the deterministic
// harnesses), concurrently in pumpLanes otherwise — and ages the
// leases: a session whose cursor made no progress for
// TransferLeaseEpochs consecutive pumps is abandoned and its snapshot
// hold released. Callers must not hold n.mu.
//
//lint:requires-unlocked n.mu
func (n *Node) pumpTransfers() {
	n.xmu.Lock()
	sessions := append([]*xferSession(nil), n.xfers...)
	n.xmu.Unlock()
	lanes := n.pumpLanes(sessions)
	n.fanOut(len(lanes), func(i int) {
		for _, s := range lanes[i] {
			n.pumpSession(s)
		}
	})
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

// pumpLanes splits a pump round's sessions into the lanes fanOut runs
// concurrently; a lane pumps its sessions one after another. A session
// so small that Fanout of them together fit in one chunk's bytes is a
// lane of its own. Larger sessions share one lane per target, so the
// connection to a target never queues more than about one chunk of
// concurrent payload: frames queued behind a write grow the transport's
// write buffer, which keeps that capacity once grown. Under Fanout <= 1
// every session is its own lane, which keeps session order.
func (n *Node) pumpLanes(sessions []*xferSession) [][]*xferSession {
	lanes := make([][]*xferSession, 0, len(sessions))
	shared := make(map[int]int) // target → index of its large sessions' lane
	for _, s := range sessions {
		if n.cfg.Fanout > 1 && s.part.Stats().Bytes > maxChunkBytes/n.cfg.Fanout {
			if i, ok := shared[s.target]; ok {
				lanes[i] = append(lanes[i], s)
				continue
			}
			shared[s.target] = len(lanes)
		}
		lanes = append(lanes, []*xferSession{s})
	}
	return lanes
}

// shipPartition heals a holder that has no resident copy: one that
// answered StatusRetry on a sync (version ver is the write being acked)
// or on a quorum read's version probe (ver 0). The shipped state must
// contain version ver: a true return is a durability ack for that
// write, not just "a snapshot landed". The session is driven to
// completion synchronously — and if the live session for this
// (partition, target) was frozen before ver was stamped, it is
// completed and retired first and a second, freshly frozen session
// carries the write. The session is claimed as it is looked up, and
// one a concurrent pump holds is left to it for a fresh one, so a heal
// never fails because another pump has the pair's session. Callers
// must not hold n.mu.
//
//lint:requires-unlocked n.mu
func (n *Node) shipPartition(p, target int, ver uint64) bool {
	// Round 2 always covers: a session planned now freezes against the
	// shard's maxVer, which the stamp already advanced past ver. The
	// coverage check reads the session's maxVer AFTER the pump, because
	// the plan (and therefore the freeze) happens inside the first pump.
	for round := 0; round < 2; round++ {
		n.mu.RLock()
		n.xmu.Lock()
		sess := n.sessionXLocked(p, target, true, false)
		sess.busy = true
		n.xmu.Unlock()
		n.mu.RUnlock()
		if !n.pumpClaimed(sess) {
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
// a transfer session (opening one if none is live) and reports whether
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
// round: probe (planning from the reply when the target does not know
// the session), begin, stream chunks from the target's cursor, and
// close with done. Any send failure ends the round — the session
// stays, the cursor survives on the target, and the next pump probes
// and resumes. Returns true when the session completed (and was
// removed); false at once when another pump holds the session or it is
// no longer live. Callers must not hold n.mu or n.xmu.
//
//lint:requires-unlocked n.mu
func (n *Node) pumpSession(s *xferSession) bool {
	n.xmu.Lock()
	claimed := !s.busy && slices.Contains(n.xfers, s)
	if claimed {
		s.busy = true
	}
	n.xmu.Unlock()
	return claimed && n.pumpClaimed(s)
}

// pumpClaimed is pumpSession on a session the caller already claimed
// (set busy under xmu). Callers must not hold n.mu or n.xmu.
//
//lint:requires-unlocked n.mu
func (n *Node) pumpClaimed(s *xferSession) bool {
	// Work on local copies of the cursor state: the lease ager reads the
	// session under xmu while a pump is in flight, so the pump must not
	// scribble on the struct lock-free. Written back at settle. The plan
	// itself (chunks, maxVer, delta) is written by planSession under xmu
	// and read lock-free here: only the pump that holds the session
	// plans it.
	n.xmu.Lock()
	begun, next, planned, wasInterrupted := s.begun, s.next, s.planned, s.interrupted
	n.xmu.Unlock()

	addr := n.peerAddr(s.target)
	completed, resumed := false, false
	sent, sentEntries, sentBytes := int64(0), int64(0), int64(0)
	// An unplanned session probes to plan; an interrupted one probes
	// first too, to learn where the target's cursor stands (it may have
	// applied a chunk whose ack was lost, recovered its cursor across a
	// restart, or lost the session and answer with a fresh plan's data).
	probe := !planned || wasInterrupted
	plans := 0

	// One bounded walk through the session state machine. A round plans
	// at most twice (the target may lose the session once mid-round), so
	// twice the chunk count plus the probes, begins and dones bounds the
	// exchanges even under adversarial replies.
walk:
	for step := 0; step < 2*len(s.chunks)+8; step++ {
		total := uint32(len(s.chunks))
		if probe {
			probe = false
			resp, err := n.tr.Send(addr, &transport.Message{
				Kind: KindXferCursor, Partition: uint32(s.p), Session: s.id,
			})
			if err != nil {
				break
			}
			switch resp.Status {
			case transport.StatusNotFound:
				// The target does not know the session: its reply is the
				// planning handshake.
				if plans == 2 || !n.planSession(s, addr, resp.Version, resp.Value) {
					break walk
				}
				plans++
				planned, begun, next = true, false, 0
				if !s.mark && len(s.chunks) == 0 && s.maxVer <= resp.Version {
					// Nothing to ship, no watermark to raise and no
					// residency to grant: done without a begin.
					completed = true
					break walk
				}
				continue
			case transport.StatusOK:
				if !planned {
					// The target already tracks an id this source never
					// planned (defensive — ids are unique across boots):
					// plan a full session and adopt the cursor.
					if !n.planSession(s, addr, 0, nil) {
						break walk
					}
					planned, total = true, uint32(len(s.chunks))
				}
				begun = true
				if resp.Cursor == xferComplete {
					completed = true
					break walk
				}
				if c := uint32(resp.Cursor); c <= total {
					resumed = resumed || c > 0
					next = c
				}
				continue
			default:
				break walk
			}
		}
		if !begun {
			// A one-chunk plan's begin carries its chunk, and the target
			// closes the session in the same exchange.
			var only []durable.Entry
			if total == 1 {
				only = s.chunks[0]
			}
			resp, err := n.tr.Send(addr, &transport.Message{
				Kind: KindXferBegin, Partition: uint32(s.p), Session: s.id,
				Version: s.maxVer, Value: appendXferBegin(nil, total, s.mark, s.delta, only),
			})
			if err != nil {
				break
			}
			if resp.Status == transport.StatusNotFound {
				probe = true // the probed content is gone: plan again
				continue
			}
			if resp.Status != transport.StatusOK {
				break
			}
			if total == 1 {
				sent++
				sentEntries += int64(len(only))
				sentBytes += int64(encodedEntriesLen(only))
			}
			begun = true
			if resp.Cursor == xferComplete {
				completed = true
				break
			}
			if c := uint32(resp.Cursor); c <= total {
				resumed = resumed || (c > 0 && wasInterrupted)
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
				probe = true // the target lost the session: plan again
				continue
			}
			if resp.Status != transport.StatusOK {
				break
			}
			sent++
			sentEntries += int64(len(s.chunks[next]))
			sentBytes += int64(len(payload))
			if resp.Cursor == xferComplete {
				completed = true
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
			completed = true
		case transport.StatusRetry:
			if c := uint32(resp.Cursor); c < total {
				next = c
				continue
			}
		case transport.StatusNotFound:
			probe = true
			continue
		default:
			// StatusError: the target could not settle the session this
			// round — end the pump; the session stays for the next one.
		}
		break
	}

	n.xmu.Lock()
	s.busy = false
	s.planned, s.begun, s.next = planned, begun, next
	s.interrupted = !completed
	n.bookSentXLocked(s, sent, sentEntries, sentBytes)
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
	total, mark, delta, chunk, err := decodeXferBegin(req.Value)
	if err != nil {
		return nil, err
	}
	n.mu.RLock()
	part := n.store.Part(p)
	next, known, err := part.BeginInbound(req.Session, total, mark, req.Version, delta)
	if err == nil && known && total <= 1 && next != xferComplete {
		// A plan of at most one chunk is the whole session in this
		// message: apply the carried chunk and close. A replayed begin of
		// a finished session was answered from the done-list above.
		if total == 1 {
			_, _, err = part.ApplyChunk(req.Session, 0, chunk)
		}
		if err == nil {
			next, _, _, err = part.FinishInbound(req.Session)
		}
	}
	n.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	if !known {
		return &transport.Message{Kind: KindXferBegin, Partition: req.Partition, Session: req.Session,
			Status: transport.StatusNotFound}, nil
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
	entries, err := decodeEntries(req.Value)
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
		// Unknown session: the reply is the planning handshake — the
		// partition's version watermark plus the digest of its content.
		maxVer, leaves, root := part.Probe(req.Session)
		return &transport.Message{Kind: KindXferCursor, Partition: req.Partition, Session: req.Session,
			Status: transport.StatusNotFound, Version: maxVer,
			Value: appendXferInfo(nil, leaves, root)}, nil
	}
	return &transport.Message{Kind: KindXferCursor, Partition: req.Partition, Session: req.Session, Cursor: next}, nil
}

// handleXferOffer answers a session's offer round: which of the offered
// (key, version) pairs this partition lacks or holds at a lower version.
func (n *Node) handleXferOffer(req *transport.Message) (*transport.Message, error) {
	p, err := n.checkPartition(req.Partition)
	if err != nil {
		return nil, err
	}
	offer, err := decodeEntries(req.Value)
	if err != nil {
		return nil, err
	}
	n.mu.RLock()
	want := n.store.Part(p).Wants(offer)
	n.mu.RUnlock()
	return &transport.Message{Kind: KindXferOffer, Partition: req.Partition, Session: req.Session,
		Value: appendXferWant(nil, want)}, nil
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
