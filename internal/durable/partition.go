package durable

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
)

// Entry is one key/value record in a sorted entry slice — the form
// snapshots, transfer chunks and repair payloads carry.
type Entry struct {
	Key string
	Ver uint64
	Val []byte
}

// value is the entry map's element: the value bytes and the per-key
// version the primary stamped when the write was accepted. Versions
// order divergent copies of the same key across holders: quorum reads
// pick the highest, and no apply path lets a lower version clobber a
// higher one. Value bytes are immutable once installed (every install
// is a fresh copy), so reads hand them out without copying.
type value struct {
	ver uint64
	val []byte
}

// Session is one inbound transfer session's resume state: the next
// chunk index the target expects, out of Total, and whether completing
// the session should mark the partition resident.
type Session struct {
	ID           uint64
	Next         uint32
	Total        uint32
	MarkResident bool
}

// CursorComplete is the cursor value the session methods report for a
// session that already finished.
const CursorComplete = ^uint64(0)

// PartitionState is one partition's full logical state.
type PartitionState struct {
	Entries  []Entry // ascending key order
	MaxVer   uint64
	Resident bool
	Sessions []Session // inbound transfer cursors, arrival order
	Done     []uint64  // recently completed inbound session ids
}

// PartitionStats is the per-partition introspection surfaced in dumps.
type PartitionStats struct {
	Keys        int
	Bytes       int // sum of len(key)+len(val): the payload a full transfer ships
	Resident    bool
	Holds       int // outstanding compaction holds (outbound transfers in flight)
	WALRecords  int // records appended since the last compaction
	Compactions int // compactions since open
}

// maxSessions bounds the inbound-session list per partition; the
// oldest session is evicted when a newer one needs the slot.
const maxSessions = 4

// maxDone bounds the completed-session-id memory that keeps replayed
// transfer-begins idempotent.
const maxDone = 8

// maxProbes bounds the probed-session-id memory that fences delta
// begins (see Probe); the oldest id is evicted first.
const maxProbes = 8

// Partition is one partition's state machine. A partition exists for
// every partition id whether or not the node currently holds a replica
// — holding is a property of the view, and an empty map costs nothing.
//
// resident tracks whether the local content is authoritative: view
// membership and content move at different speeds (a drop order lands
// an epoch before the placement claim that removes the holder from
// peer views, and a claim can add a holder an epoch before its snapshot
// arrives), so "the view says I hold it" does not imply "my data is
// complete". Reads are served locally only from resident partitions,
// and sync application is gated on residency so a delayed sync cannot
// resurrect records in a dropped partition. A partition is born
// resident — the cluster starts empty, so empty content IS
// authoritative.
//
// maxVer is the highest version the partition has ever observed for
// any key; StampPut derives the next version from it. It survives drop
// so a holder that loses and later regains a partition never re-issues
// a version it already handed out.
//
// Concurrency: mu guards everything below it and is the only lock on
// the write path; it is a leaf (nothing is called out of the package
// while it is held), so callers may take it under any lock of theirs.
type Partition struct {
	mu  sync.Mutex
	eng *Engine
	id  int

	data     map[string]value
	bytes    int // sum of len(key)+len(val) over data
	maxVer   uint64
	resident bool
	// sessions is the live inbound transfer sessions; done remembers
	// recently completed ids so a replayed begin/done is answered
	// "already complete" instead of re-running the session.
	sessions []Session
	done     []uint64
	// tree is the live anti-entropy digest, maintained by apply (O(1)
	// per write). Reading it costs nothing, which is what lets roots
	// piggyback on the stats broadcast and transfer probes answer with
	// a digest without rehashing the partition. While
	// recovering is set apply leaves it alone and recover digests the
	// final map once instead — one hash per surviving key rather than
	// two per replayed record.
	tree       AETree
	recovering bool

	// holds counts outbound transfer sessions freezing this partition
	// (the lease that keeps compaction from rewriting the WAL+snapshot
	// pair underneath them); pending remembers that the threshold
	// tripped while held. probes lists the session ids whose Probe
	// described the current content and that have not begun yet.
	// Process-local: not part of the logged state.
	holds   int
	pending bool
	probes  []uint64

	wal         *os.File // nil in memory mode and after Close
	walRecords  int
	compactions int
	buf         []byte // record-encoding scratch, reused under mu
}

func (pt *Partition) init(e *Engine, id int) {
	pt.eng, pt.id = e, id
	pt.data = make(map[string]value)
	pt.resident = true
}

// record is one step of the state machine: the decoded form of a WAL
// record, and the only argument apply takes.
type record struct {
	op   byte
	key  string  // opPut
	ver  uint64  // opPut, opMaxVer
	val  []byte  // opPut
	sess Session // opCursor; opDone reads only sess.ID
}

// apply performs one step. Every effect of every op is written here
// and nowhere else: commit, WAL replay and snapshot load all funnel
// through it. All ops are blind last-writer-wins sets, which is what
// makes replaying a WAL suffix a snapshot already folded in idempotent.
func (pt *Partition) apply(r *record) {
	switch r.op {
	case opPut:
		old, replaced := pt.data[r.key]
		if replaced {
			pt.bytes -= len(r.key) + len(old.val)
		}
		pt.bytes += len(r.key) + len(r.val)
		pt.data[r.key] = value{ver: r.ver, val: r.val}
		if !pt.recovering {
			if replaced {
				pt.tree.Apply(r.key, old.ver, old.val) // XOR removes the old record
			}
			pt.tree.Apply(r.key, r.ver, r.val)
		}
		fallthrough
	case opMaxVer:
		if r.ver > pt.maxVer {
			pt.maxVer = r.ver
		}
	case opDrop, opReset:
		// maxVer is kept (re-adoption must never re-issue versions).
		// Sessions, the done-list and the probes die with the data: the
		// chunks a live session merged are gone, so a cursor resuming past
		// them would complete an authoritative partial copy, and a delta
		// planned against the old content would too.
		pt.data = make(map[string]value)
		pt.bytes = 0
		pt.tree = AETree{}
		pt.resident = r.op == opReset
		pt.sessions, pt.done, pt.probes = nil, nil, nil
	case opResident:
		pt.resident = true
	case opRevoke:
		pt.resident = false
	case opCursor:
		if i := pt.session(r.sess.ID); i >= 0 {
			pt.sessions[i] = r.sess
			return
		}
		pt.sessions = append(pt.sessions, r.sess)
		if len(pt.sessions) > maxSessions {
			pt.sessions = pt.sessions[len(pt.sessions)-maxSessions:]
		}
	case opDone:
		if i := pt.session(r.sess.ID); i >= 0 {
			pt.sessions = append(pt.sessions[:i], pt.sessions[i+1:]...)
		}
		if pt.isDone(r.sess.ID) {
			return // replayed over a snapshot that already folded it in
		}
		pt.done = append(pt.done, r.sess.ID)
		if len(pt.done) > maxDone {
			pt.done = pt.done[len(pt.done)-maxDone:]
		}
	}
}

// session returns the index of live inbound session sid, or -1.
func (pt *Partition) session(sid uint64) int {
	return slices.IndexFunc(pt.sessions, func(s Session) bool { return s.ID == sid })
}

func (pt *Partition) isDone(sid uint64) bool {
	return slices.Contains(pt.done, sid)
}

// commit is the only live write path: append the record to the log and
// make it durable, THEN apply it, then compact if the record count
// tripped the threshold (and no hold defers it). Any IO failure is
// sticky and the record is NOT applied — the caller must not ack. In
// memory mode there is no log and commit is apply. Callers hold pt.mu.
func (pt *Partition) commit(r *record) error {
	e := pt.eng
	if err := e.failed(); err != nil {
		return err
	}
	if e.opts.Dir == "" {
		pt.apply(r)
		return nil
	}
	pt.buf = appendRecord(pt.buf[:0], r)
	if _, err := pt.wal.Write(pt.buf); err != nil {
		return e.fail(fmt.Errorf("durable: partition %d: wal append: %w", pt.id, err))
	}
	if err := e.opts.Sync.Sync(pt.wal); err != nil {
		return e.fail(fmt.Errorf("durable: partition %d: wal sync: %w", pt.id, err))
	}
	pt.walRecords++
	pt.apply(r)
	if pt.walRecords >= e.opts.CompactEvery {
		return pt.compactUnlessHeld()
	}
	return nil
}

// compactUnlessHeld folds the WAL into the snapshot now, or — while an
// outbound transfer holds the partition — remembers to do it when the
// last hold releases. A failed compaction latches the engine. Callers
// hold pt.mu.
func (pt *Partition) compactUnlessHeld() error {
	if pt.holds > 0 {
		pt.pending = true
		return nil
	}
	if err := pt.compact(); err != nil {
		return pt.eng.fail(err)
	}
	return nil
}

// recover loads the partition from disk: snapshot, then WAL replay.
func (pt *Partition) recover() error {
	e := pt.eng
	pt.recovering = true
	// An interrupted compaction can leave a half-written temp snapshot;
	// it was never installed, so it is garbage.
	if err := os.Remove(e.snapPath(pt.id) + ".tmp"); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("durable: partition %d: %w", pt.id, err)
	}
	if err := loadSnapshot(e.snapPath(pt.id), pt); err != nil {
		return err
	}
	f, n, err := replayWAL(e.walPath(pt.id), pt)
	if err != nil {
		return fmt.Errorf("durable: partition %d: %w", pt.id, err)
	}
	pt.tree = AETree{}
	for _, e := range pt.sortedEntries() {
		pt.tree.Apply(e.Key, e.Ver, e.Val)
	}
	pt.recovering = false
	pt.walRecords = n
	pt.wal = f
	return nil
}

// compact writes the state to a temp snapshot, atomically renames it
// into place, and truncates the WAL. Crash windows: before the rename
// the temp file is garbage (removed at next open); between rename and
// truncation recovery replays the full WAL over the new snapshot,
// which is idempotent (see Open). Callers hold pt.mu.
func (pt *Partition) compact() (err error) {
	defer func() {
		if err != nil {
			err = fmt.Errorf("durable: partition %d: compact: %w", pt.id, err)
		}
	}()
	e := pt.eng
	if err := writeFileAtomic(e.snapPath(pt.id), appendSnapshot(nil, pt), e.opts.Sync); err != nil {
		return err
	}
	if err := e.syncDir(); err != nil {
		return err
	}
	if err := pt.wal.Truncate(0); err != nil {
		return fmt.Errorf("wal truncate: %w", err)
	}
	if err := e.opts.Sync.Sync(pt.wal); err != nil {
		return fmt.Errorf("wal sync: %w", err)
	}
	pt.walRecords = 0
	pt.compactions++
	return nil
}

// --- Writes -----------------------------------------------------------

// StampPut is the primary's write apply: it assigns the key the next
// version — strictly above both everything this partition has seen and
// epochBase (the current epoch shifted into the version's high bits),
// so versions stay monotone across primary failover as long as
// suspicion takes at least one epoch — installs the value, and returns
// the stamped version for the sync fan-out. An error means the log
// refused the append: nothing was applied and the write must not be
// acked.
func (pt *Partition) StampPut(key string, val []byte, epochBase uint64) (uint64, error) {
	v := make([]byte, len(val))
	copy(v, val)
	pt.mu.Lock()
	defer pt.mu.Unlock()
	ver := max(pt.maxVer, epochBase) + 1
	if err := pt.commit(&record{op: opPut, key: key, ver: ver, val: v}); err != nil {
		return 0, err
	}
	return ver, nil
}

// ApplySync applies one replicated write at a holder. acked reports
// whether this holder now durably has version ver or newer — true both
// when the write applied and when an equal-or-newer version was
// already present (a replayed or reordered sync is a success, not a
// conflict). A non-resident partition refuses: its content is not
// authoritative, and applying would let a delayed sync resurrect
// records the same epoch's drop discarded. A log refusing the append
// also refuses the ack.
func (pt *Partition) ApplySync(key string, val []byte, ver uint64) (acked bool) {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	if !pt.resident {
		return false
	}
	if cur, ok := pt.data[key]; ok && cur.ver >= ver {
		return true
	}
	v := make([]byte, len(val))
	copy(v, val)
	return pt.commit(&record{op: opPut, key: key, ver: ver, val: v}) == nil
}

// merge folds an entry block in, version-aware per key: a record
// replaces the local one only if strictly newer, so a replayed or
// delayed transfer can never roll a key back. Returns how many entries
// won their version race. The first log refusal aborts the merge — the
// entries already applied are durable and version-gated, so a partial
// merge is safe to leave behind. Entry values are kept by reference.
// Callers hold pt.mu.
func (pt *Partition) merge(entries []Entry) (int, error) {
	if len(pt.data) == 0 && len(entries) > 0 {
		// A whole snapshot landing on an emptied partition: size the map
		// for it once instead of growing it by doubling under the lock.
		pt.data = make(map[string]value, len(entries))
	}
	merged := 0
	for _, in := range entries {
		if cur, ok := pt.data[in.Key]; ok && cur.ver >= in.Ver {
			continue
		}
		if err := pt.commit(&record{op: opPut, key: in.Key, ver: in.Ver, val: in.Val}); err != nil {
			return merged, err
		}
		merged++
	}
	return merged, nil
}

// grant makes the partition resident. Callers hold pt.mu.
func (pt *Partition) grant() error {
	if pt.resident {
		return nil
	}
	return pt.commit(&record{op: opResident})
}

// MergeSnapshot folds a whole snapshot in and makes the partition
// resident — after the merge its content covers at least everything
// the snapshot held. Merging nil re-adopts the local content as is.
func (pt *Partition) MergeSnapshot(entries []Entry) error {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	if _, err := pt.merge(entries); err != nil {
		return err
	}
	return pt.grant()
}

// Drop discards the partition's data (migration victim, suicide): not
// resident until another snapshot arrives. ResetEmpty restores the
// authoritative empty state instead — the lost-data reseed, where every
// holder is gone and the primary re-adopts the partition as empty. Both
// keep maxVer and invalidate inbound sessions (see apply): a post-drop
// chunk/done/begin answers "unknown session" or restarts at chunk 0,
// and the source re-ships the whole snapshot onto the emptied
// partition. A log refusal is sticky engine-side: a drop the disk
// missed surfaces on the next acked write, not here.
func (pt *Partition) Drop() {
	pt.mu.Lock()
	_ = pt.commit(&record{op: opDrop}) // sticky engine error; next ack-path commit surfaces it
	pt.mu.Unlock()
}

// ResetEmpty is the authoritative-empty reseed (see Drop).
func (pt *Partition) ResetEmpty() {
	pt.mu.Lock()
	_ = pt.commit(&record{op: opReset}) // sticky engine error; next ack-path commit surfaces it
	pt.mu.Unlock()
}

// Revoke withdraws residency but keeps the data, sessions and
// watermark: a node restarting into a cluster that moved on must not
// serve its possibly-stale content, yet must keep it so the rejoin path
// can push it back to the current holders. Logged like every other
// step, so a second restart recovers the revocation too.
func (pt *Partition) Revoke() error {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	if !pt.resident {
		return nil
	}
	return pt.commit(&record{op: opRevoke})
}

// --- Inbound transfer sessions ----------------------------------------

// BeginInbound opens (or re-finds) an inbound transfer session and
// returns the next chunk the target wants: 0 for a fresh session, the
// cursor for a known one, CursorComplete for a replayed begin of a
// finished session. srcMaxVer folds the source's version watermark in
// up front so watermark-only state transfers even if every chunk loses
// the version race. A delta session — one planned against the content
// Probe(sid) reported, shipping only what that content lacked — opens
// only while that content is still here: after a drop, reset or
// restart since the probe, known=false sends the source back to probe
// and plan again, and nothing is touched.
func (pt *Partition) BeginInbound(sid uint64, total uint32, markResident bool, srcMaxVer uint64, delta bool) (next uint64, known bool, err error) {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	if pt.isDone(sid) {
		return CursorComplete, true, nil
	}
	i := pt.session(sid)
	probed := slices.Index(pt.probes, sid)
	if i < 0 && delta && probed < 0 {
		return 0, false, nil
	}
	if srcMaxVer > pt.maxVer {
		if err := pt.commit(&record{op: opMaxVer, ver: srcMaxVer}); err != nil {
			return 0, true, err
		}
	}
	if i >= 0 {
		return uint64(pt.sessions[i].Next), true, nil
	}
	if probed >= 0 {
		pt.probes = slices.Delete(pt.probes, probed, probed+1)
	}
	sess := Session{ID: sid, Total: total, MarkResident: markResident}
	return 0, true, pt.commit(&record{op: opCursor, sess: sess})
}

// ApplyChunk applies one transfer chunk. known=false means the session
// is not (or no longer) tracked and the source must plan again. A chunk
// that is not the exact next one is acked without applying — the
// cursor only moves forward, so duplicated or reordered chunks are
// no-ops and repeated invocation converges monotonically. The advanced
// cursor is logged, which is what lets a restarted target continue a
// chunked transfer where it stopped instead of starting over.
func (pt *Partition) ApplyChunk(sid uint64, idx uint32, entries []Entry) (next uint64, known bool, err error) {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	if pt.isDone(sid) {
		return CursorComplete, true, nil
	}
	i := pt.session(sid)
	if i < 0 {
		return 0, false, nil
	}
	adv := pt.sessions[i]
	if idx != adv.Next {
		return uint64(adv.Next), true, nil
	}
	if _, err := pt.merge(entries); err != nil {
		return 0, true, err
	}
	adv.Next++
	if err := pt.commit(&record{op: opCursor, sess: adv}); err != nil {
		return 0, true, err
	}
	return uint64(adv.Next), true, nil
}

// FinishInbound closes an inbound session. complete=false (with the
// cursor) means chunks are still missing; known=false means the
// session is untracked and the source must plan again. Completion
// applies the session's residency side effect and retires the id so a
// replayed done (or begin) is idempotent, across restarts too.
func (pt *Partition) FinishInbound(sid uint64) (next uint64, known, complete bool, err error) {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	if pt.isDone(sid) {
		return CursorComplete, true, true, nil
	}
	i := pt.session(sid)
	if i < 0 {
		return 0, false, false, nil
	}
	sess := pt.sessions[i]
	if sess.Next != sess.Total {
		return uint64(sess.Next), true, false, nil
	}
	if sess.MarkResident {
		if err := pt.grant(); err != nil {
			return 0, true, false, err
		}
	}
	if err := pt.commit(&record{op: opDone, sess: sess}); err != nil {
		return 0, true, false, err
	}
	return CursorComplete, true, true, nil
}

// InboundCursor answers a resume probe: where does the target's cursor
// stand for this session?
func (pt *Partition) InboundCursor(sid uint64) (next uint64, known bool) {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	if pt.isDone(sid) {
		return CursorComplete, true
	}
	if i := pt.session(sid); i >= 0 {
		return uint64(pt.sessions[i].Next), true
	}
	return 0, false
}

// Hold defers compaction: an outbound transfer session froze the
// partition's state and the WAL+snapshot pair backing it must not be
// rewritten underneath. Holds nest.
func (pt *Partition) Hold() {
	pt.mu.Lock()
	pt.holds++
	pt.mu.Unlock()
}

// Release undoes one Hold; when the last hold clears and a compaction
// was deferred meanwhile, it runs now.
func (pt *Partition) Release() {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	if pt.holds > 0 {
		pt.holds--
	}
	// pt.wal is nil once Close ran: a straggling release (e.g. a
	// transfer pump racing a shutdown) must not run the deferred
	// compaction against closed files.
	if pt.holds == 0 && pt.pending && pt.wal != nil {
		pt.pending = false
		if err := pt.compact(); err != nil {
			_ = pt.eng.fail(err) // latched; the next ack-path commit surfaces it
		}
	}
}

// --- Reads ------------------------------------------------------------

// Get returns the physically stored value and version for one key plus
// the partition's residency; callers decide whether a non-resident
// answer may be used.
func (pt *Partition) Get(key string) (val []byte, ver uint64, ok, resident bool) {
	pt.mu.Lock()
	v, ok := pt.data[key]
	resident = pt.resident
	pt.mu.Unlock()
	return v.val, v.ver, ok, resident
}

// sortedEntries flattens the records into ascending key order — the
// canonical form snapshots and transfer sessions slice from. It is the
// seam where a paged (larger-than-RAM) store would stream from the
// snapshot+WAL pair instead. Callers hold pt.mu.
func (pt *Partition) sortedEntries() []Entry {
	out := make([]Entry, 0, len(pt.data))
	for k, v := range pt.data {
		out = append(out, Entry{Key: k, Ver: v.ver, Val: v.val})
	}
	slices.SortFunc(out, compareKeys)
	return out
}

func compareKeys(a, b Entry) int { return strings.Compare(a.Key, b.Key) }

// Entries freezes the whole partition plus its version watermark — the
// source state an outbound transfer session chunks from. Only the copy
// runs under the lock; the sort runs after it is released, so the
// partition's reads and writes never wait behind it.
func (pt *Partition) Entries() ([]Entry, uint64) {
	pt.mu.Lock()
	out := make([]Entry, 0, len(pt.data))
	for k, v := range pt.data {
		out = append(out, Entry{Key: k, Ver: v.ver, Val: v.val})
	}
	maxVer := pt.maxVer
	pt.mu.Unlock()
	slices.SortFunc(out, compareKeys)
	return out, maxVer
}

// Probe answers a transfer session's planning probe: the version
// watermark and the top digest of what the partition physically holds,
// resident or not (nil leaves: it holds nothing). It also records sid,
// so a delta planned from this answer can begin only while the content
// it describes is still here (see BeginInbound).
func (pt *Partition) Probe(sid uint64) (maxVer uint64, leaves []uint64, root uint64) {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	if !slices.Contains(pt.probes, sid) {
		pt.probes = append(pt.probes, sid)
		if len(pt.probes) > maxProbes {
			pt.probes = pt.probes[len(pt.probes)-maxProbes:]
		}
	}
	if len(pt.data) == 0 {
		return pt.maxVer, nil, 0
	}
	return pt.maxVer, pt.tree.Leaves(), pt.tree.Root()
}

// Wants answers a transfer session's offer of (key, version) pairs
// (values unset): the ascending indexes of the offered entries this
// partition lacks or holds at a lower version.
func (pt *Partition) Wants(offer []Entry) []int {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	var want []int
	for i, e := range offer {
		if cur, ok := pt.data[e.Key]; !ok || cur.ver < e.Ver {
			want = append(want, i)
		}
	}
	return want
}

// Root answers an anti-entropy round in O(1): residency and — for
// resident partitions only — the live digest's root. Non-resident
// content is not authoritative, so it publishes no root and takes part
// in no round; transfer planning reads the physical digest through
// Probe instead.
func (pt *Partition) Root() (resident bool, root uint64) {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	if !pt.resident {
		return false, 0
	}
	return true, pt.tree.Root()
}

// Stats returns the partition's size, residency and log counters.
func (pt *Partition) Stats() PartitionStats {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	return PartitionStats{
		Keys: len(pt.data), Bytes: pt.bytes, Resident: pt.resident, Holds: pt.holds,
		WALRecords: pt.walRecords, Compactions: pt.compactions,
	}
}

// State returns a copy of the partition's full logical state.
func (pt *Partition) State() PartitionState {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	return PartitionState{
		Entries:  pt.sortedEntries(),
		MaxVer:   pt.maxVer,
		Resident: pt.resident,
		Sessions: append([]Session(nil), pt.sessions...),
		Done:     append([]uint64(nil), pt.done...),
	}
}
