package durable

import (
	"os"
	"path/filepath"
	"testing"
)

func openTest(t *testing.T, dir string, compactEvery int) *Engine {
	t.Helper()
	e, err := Open(Options{Dir: dir, Partitions: 4, CompactEvery: compactEvery})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return e
}

// step commits one raw record to partition p — the tests' way to drive
// single ops the public API only reaches through a protocol method.
func step(e *Engine, p int, r record) error {
	pt := e.Part(p)
	pt.mu.Lock()
	defer pt.mu.Unlock()
	return pt.commit(&r)
}

func mustAppend(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("append: %v", err)
	}
}

// expectState compares partition p's recovered state field by field.
func expectState(t *testing.T, e *Engine, p int, want PartitionState) {
	t.Helper()
	got := e.Recovered(p)
	if got.MaxVer != want.MaxVer {
		t.Errorf("partition %d: maxVer %d, want %d", p, got.MaxVer, want.MaxVer)
	}
	if got.Resident != want.Resident {
		t.Errorf("partition %d: resident %v, want %v", p, got.Resident, want.Resident)
	}
	if len(got.Entries) != len(want.Entries) {
		t.Fatalf("partition %d: %d entries, want %d (%v)", p, len(got.Entries), len(want.Entries), got.Entries)
	}
	for i := range want.Entries {
		g, w := got.Entries[i], want.Entries[i]
		if g.Key != w.Key || g.Ver != w.Ver || string(g.Val) != string(w.Val) {
			t.Errorf("partition %d entry %d: got {%q %d %q}, want {%q %d %q}",
				p, i, g.Key, g.Ver, g.Val, w.Key, w.Ver, w.Val)
		}
	}
	if len(got.Sessions) != len(want.Sessions) {
		t.Fatalf("partition %d: %d sessions, want %d", p, len(got.Sessions), len(want.Sessions))
	}
	for i := range want.Sessions {
		if got.Sessions[i] != want.Sessions[i] {
			t.Errorf("partition %d session %d: got %+v, want %+v", p, i, got.Sessions[i], want.Sessions[i])
		}
	}
	if len(got.Done) != len(want.Done) {
		t.Fatalf("partition %d: %d done ids, want %d", p, len(got.Done), len(want.Done))
	}
	for i := range want.Done {
		if got.Done[i] != want.Done[i] {
			t.Errorf("partition %d done %d: got %d, want %d", p, i, got.Done[i], want.Done[i])
		}
	}
}

// TestRecoverRoundTrip closes and reopens an engine after a mixed op
// sequence and requires recovery to restore entries, maxVer, residency,
// sessions and completed-session memory exactly.
func TestRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	e := openTest(t, dir, 1024)
	mustAppend(t, e.AppendPut(0, "a", 5, []byte("va")))
	mustAppend(t, e.AppendPut(0, "b", 6, []byte("vb")))
	mustAppend(t, e.AppendPut(0, "a", 9, []byte("va2")))     // overwrite
	mustAppend(t, step(e, 0, record{op: opMaxVer, ver: 40})) // watermark-only raise
	mustAppend(t, step(e, 1, record{op: opDrop}))            // partition 1 dropped
	mustAppend(t, e.AppendPut(2, "k", 3, []byte("v")))
	mustAppend(t, step(e, 2, record{op: opReset})) // ...then reseeded empty
	mustAppend(t, step(e, 3, record{op: opCursor, sess: Session{ID: 77, Next: 2, Total: 5, MarkResident: true}}))
	mustAppend(t, step(e, 3, record{op: opDone, sess: Session{ID: 42}}))
	if err := e.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	e2 := openTest(t, dir, 1024)
	defer func() {
		if err := e2.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
	}()
	expectState(t, e2, 0, PartitionState{
		Entries: []Entry{{Key: "a", Ver: 9, Val: []byte("va2")}, {Key: "b", Ver: 6, Val: []byte("vb")}},
		MaxVer:  40, Resident: true,
	})
	expectState(t, e2, 1, PartitionState{MaxVer: 0, Resident: false})
	expectState(t, e2, 2, PartitionState{MaxVer: 3, Resident: true})
	expectState(t, e2, 3, PartitionState{
		Resident: true,
		Sessions: []Session{{ID: 77, Next: 2, Total: 5, MarkResident: true}},
		Done:     []uint64{42},
	})
}

// TestDropClearsSessionState pins the session-invalidation half of
// drop/reset: the entries an inbound session merged before the drop
// are gone with the data, so its cursor — and the done-list that
// answers replayed begins "already complete" — must not survive
// either, in the live mirror or across recovery replay. A recovered
// cursor resuming past the drop would complete an authoritative
// partial copy of the source snapshot.
func TestDropClearsSessionState(t *testing.T) {
	dir := t.TempDir()
	e := openTest(t, dir, 1024)
	mustAppend(t, step(e, 0, record{op: opCursor, sess: Session{ID: 7, Next: 2, Total: 5, MarkResident: true}}))
	mustAppend(t, step(e, 0, record{op: opDone, sess: Session{ID: 9}}))
	mustAppend(t, step(e, 0, record{op: opDrop}))
	expectState(t, e, 0, PartitionState{Resident: false})
	mustAppend(t, step(e, 1, record{op: opCursor, sess: Session{ID: 8, Next: 1, Total: 2}}))
	mustAppend(t, step(e, 1, record{op: opReset}))
	expectState(t, e, 1, PartitionState{Resident: true})
	if err := e.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// WAL replay must reproduce the invalidation, not just the live
	// mirror: the drop landed after the cursor records, so a restart
	// must recover no sessions.
	e2 := openTest(t, dir, 1024)
	expectState(t, e2, 0, PartitionState{Resident: false})
	expectState(t, e2, 1, PartitionState{Resident: true})
	if err := e2.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestGenerationBumpsPerOpen pins the boot-generation counter: every
// Open of the same directory observes a strictly higher generation,
// the uniqueness source for outbound transfer-session ids across
// process restarts.
func TestGenerationBumpsPerOpen(t *testing.T) {
	dir := t.TempDir()
	for want := uint64(1); want <= 3; want++ {
		e := openTest(t, dir, 1024)
		if g := e.Generation(); g != want {
			t.Fatalf("open #%d: generation = %d, want %d", want, g, want)
		}
		if err := e.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
	}
}

// TestTornFinalWALRecordReplaysCleanly cuts the WAL mid-record — the
// state a crash leaves behind when it interrupts an append — and
// requires recovery to replay every intact record, truncate the torn
// tail, and keep accepting appends afterwards.
func TestTornFinalWALRecordReplaysCleanly(t *testing.T) {
	for _, cut := range []int{1, 4, 9} { // inside header, inside crc, inside payload
		dir := t.TempDir()
		e := openTest(t, dir, 1024)
		mustAppend(t, e.AppendPut(0, "keep", 1, []byte("v1")))
		mustAppend(t, e.AppendPut(0, "keep", 2, []byte("v2")))
		if err := e.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}

		// Manufacture the torn append: a record prefix without its suffix.
		torn := appendRecord(nil, &record{op: opPut, key: "torn", ver: 3, val: []byte("never-acked")})
		path := filepath.Join(dir, "p0000.wal")
		f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(torn[:cut]); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}

		e2 := openTest(t, dir, 1024)
		expectState(t, e2, 0, PartitionState{
			Entries: []Entry{{Key: "keep", Ver: 2, Val: []byte("v2")}},
			MaxVer:  2, Resident: true,
		})
		// The file was truncated back to the intact prefix, and appending
		// resumes from there.
		mustAppend(t, e2.AppendPut(0, "after", 4, []byte("v4")))
		if err := e2.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		e3 := openTest(t, dir, 1024)
		expectState(t, e3, 0, PartitionState{
			Entries: []Entry{{Key: "after", Ver: 4, Val: []byte("v4")}, {Key: "keep", Ver: 2, Val: []byte("v2")}},
			MaxVer:  4, Resident: true,
		})
		if err := e3.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
	}
}

// TestCompactionTriggersAndPreservesState drives appends past the
// CompactEvery threshold and checks the WAL folds into the snapshot
// without changing the recoverable state.
func TestCompactionTriggersAndPreservesState(t *testing.T) {
	dir := t.TempDir()
	e := openTest(t, dir, 4)
	for i := 0; i < 10; i++ {
		mustAppend(t, e.AppendPut(0, "k"+string(rune('a'+i)), uint64(i+1), []byte{byte(i)}))
	}
	st := e.Part(0).Stats()
	if st.Compactions != 2 {
		t.Fatalf("compactions = %d, want 2 (10 appends at CompactEvery=4)", st.Compactions)
	}
	if st.WALRecords != 2 {
		t.Fatalf("wal records = %d, want 2 after last compaction", st.WALRecords)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	e2 := openTest(t, dir, 4)
	got := e2.Recovered(0)
	if len(got.Entries) != 10 || got.MaxVer != 10 {
		t.Fatalf("recovered %d entries maxVer %d, want 10/10", len(got.Entries), got.MaxVer)
	}
	if err := e2.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestCrashDuringCompactionReplays manufactures both compaction crash
// windows: a leftover temp snapshot (crash before rename) and an
// installed snapshot with the full un-truncated WAL still behind it
// (crash between rename and truncation). Recovery must converge to the
// exact pre-crash state in both — including across a drop/re-put
// sequence and a finished session, where blind WAL replay over the
// already-folded snapshot transiently resurrects and re-clears records
// and must not remember the completed id twice.
func TestCrashDuringCompactionReplays(t *testing.T) {
	dir := t.TempDir()
	e := openTest(t, dir, 1024)
	mustAppend(t, e.AppendPut(0, "x", 1, []byte("old")))
	mustAppend(t, step(e, 0, record{op: opDrop}))
	mustAppend(t, e.AppendPut(0, "y", 7, []byte("new")))
	mustAppend(t, step(e, 0, record{op: opResident}))
	mustAppend(t, step(e, 0, record{op: opCursor, sess: Session{ID: 5, Next: 1, Total: 1}}))
	mustAppend(t, step(e, 0, record{op: opDone, sess: Session{ID: 5}}))
	if err := e.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	want := PartitionState{
		Entries: []Entry{{Key: "y", Ver: 7, Val: []byte("new")}},
		MaxVer:  7, Resident: true, Done: []uint64{5},
	}

	walPath := filepath.Join(dir, "p0000.wal")
	walBytes, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}

	// Window 1: crash before the rename — a garbage temp file is lying
	// around. Recovery ignores and removes it.
	tmp := filepath.Join(dir, "p0000.snap.tmp")
	if err := os.WriteFile(tmp, []byte("half-written-snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	e2 := openTest(t, dir, 1024)
	expectState(t, e2, 0, want)
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("leftover temp snapshot not removed (stat err %v)", err)
	}

	// Window 2: snapshot installed, WAL not yet truncated. Compact for
	// real, then restore the full pre-compaction WAL behind the new
	// snapshot.
	if err := e2.Compact(0); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if err := e2.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := os.WriteFile(walPath, walBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	e3 := openTest(t, dir, 1024)
	expectState(t, e3, 0, want)
	if err := e3.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestHoldDefersCompaction pins the lease contract's engine half: while
// a hold is out (an outbound transfer froze the partition state), the
// record threshold must not trigger a compaction; the deferred
// compaction runs when the last hold releases.
func TestHoldDefersCompaction(t *testing.T) {
	dir := t.TempDir()
	e := openTest(t, dir, 3)
	defer func() {
		if err := e.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
	}()
	e.Part(0).Hold()
	e.Part(0).Hold() // holds nest
	for i := 0; i < 6; i++ {
		mustAppend(t, e.AppendPut(0, "k", uint64(i+1), []byte("v")))
	}
	if st := e.Part(0).Stats(); st.Compactions != 0 || st.WALRecords != 6 {
		t.Fatalf("held partition compacted anyway: %+v", st)
	}
	e.Part(0).Release()
	if st := e.Part(0).Stats(); st.Compactions != 0 {
		t.Fatalf("compaction ran with a hold still out: %+v", st)
	}
	e.Part(0).Release()
	if st := e.Part(0).Stats(); st.Compactions != 1 || st.WALRecords != 0 {
		t.Fatalf("deferred compaction did not run on last release: %+v", st)
	}
}

// TestAppendAfterCloseRefuses pins the ack-path contract: a closed (or
// failed) engine refuses appends instead of acking writes it cannot
// persist.
func TestAppendAfterCloseRefuses(t *testing.T) {
	dir := t.TempDir()
	e := openTest(t, dir, 1024)
	if err := e.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := e.AppendPut(0, "k", 1, []byte("v")); err == nil {
		t.Fatal("append on a closed engine did not error")
	}
}
