package durable

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestMidLogCorruptionFailsOpen flips one byte in the middle of a WAL:
// the damaged record is followed by intact ones, so it is not the torn
// tail of a crashed append and truncating there would silently drop
// acked data. Open must refuse and name the partition and the offset.
func TestMidLogCorruptionFailsOpen(t *testing.T) {
	dir := t.TempDir()
	e := openTest(t, dir, 1024)
	first := appendRecord(nil, &record{op: opPut, key: "a", ver: 1, val: []byte("acked-1")})
	mustAppend(t, e.AppendPut(2, "a", 1, []byte("acked-1")))
	mustAppend(t, e.AppendPut(2, "b", 2, []byte("acked-2")))
	mustAppend(t, e.AppendPut(2, "c", 3, []byte("acked-3")))
	if err := e.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	path := filepath.Join(dir, "p0002.wal")
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(first)+walHeaderLen+3] ^= 0x40 // inside the second record's payload
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	e2, err := Open(Options{Dir: dir, Partitions: 4})
	if err == nil {
		_ = e2.Close()
		t.Fatal("open accepted a WAL with a corrupt record in the middle")
	}
	for _, want := range []string{"partition 2", fmt.Sprintf("offset %d", len(first))} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
	if after, _ := os.ReadFile(path); len(after) != len(buf) {
		t.Errorf("refused open still truncated the WAL: %d -> %d bytes", len(buf), len(after))
	}
}

// TestParentCommitDataDirRecovers opens a data directory written by the
// commit before the one-machine refactor (testdata/parent-ff124d6:
// snapshots and WALs, in-flight inbound sessions in both) and requires
// the exact state that commit's recovery produced.
func TestParentCommitDataDirRecovers(t *testing.T) {
	dir := t.TempDir()
	files, err := filepath.Glob("testdata/parent-ff124d6/*")
	if err != nil || len(files) == 0 {
		t.Fatalf("testdata missing: %v", err)
	}
	for _, src := range files {
		buf, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(src)), buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	e, err := Open(Options{Dir: dir, Partitions: 3})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer e.Close()
	if g := e.Generation(); g != 2 {
		t.Errorf("generation = %d, want 2 (the parent's boot was 1)", g)
	}
	expectState(t, e, 0, PartitionState{
		Entries: []Entry{{Key: "a", Ver: 9, Val: []byte("va2")}, {Key: "b", Ver: 6, Val: []byte("vb")}, {Key: "empty", Ver: 7}},
		MaxVer:  40, Resident: true,
		Sessions: []Session{{ID: 77, Next: 2, Total: 5, MarkResident: true}, {ID: 78, Total: 3}},
		Done:     []uint64{42},
	})
	expectState(t, e, 1, PartitionState{
		Entries: []Entry{{Key: "y", Ver: 7, Val: []byte("new")}},
		MaxVer:  7, Resident: true, Done: []uint64{10},
	})
	expectState(t, e, 2, PartitionState{
		Entries: []Entry{{Key: "late", Ver: 11, Val: []byte("after-drop")}},
		MaxVer:  11, Resident: false,
	})
}

// TestMemoryModeIsTheSameMachineWithoutALog pins Dir == "": no files,
// generation 0, the same protocol answers, and Close still latches.
func TestMemoryModeIsTheSameMachineWithoutALog(t *testing.T) {
	wd := t.TempDir()
	t.Chdir(wd)
	e, err := Open(Options{Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	pt := e.Part(1)
	ver, err := pt.StampPut("k", []byte("v"), 5<<20)
	if err != nil || ver != 5<<20+1 {
		t.Fatalf("stamp: ver=%d err=%v", ver, err)
	}
	if !pt.ApplySync("k2", []byte("w"), 3) {
		t.Fatal("sync refused on a born-resident partition")
	}
	if err := e.Compact(1); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if st := pt.Stats(); st.Keys != 2 || st.WALRecords != 0 || st.Compactions != 0 || e.Generation() != 0 {
		t.Errorf("stats %+v generation %d, want 2 keys and no log activity", st, e.Generation())
	}
	if left, _ := os.ReadDir(wd); len(left) != 0 {
		t.Errorf("memory mode wrote files: %v", left)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := pt.StampPut("k", []byte("v"), 0); err == nil {
		t.Error("stamp on a closed memory engine did not refuse")
	}
}

// TestRevokeIsLogged pins the restart rule as a state-machine step: a
// revoked partition keeps data, watermark and sessions but is not
// resident, and recovery replays exactly that.
func TestRevokeIsLogged(t *testing.T) {
	dir := t.TempDir()
	e := openTest(t, dir, 1024)
	mustAppend(t, e.AppendPut(0, "k", 4, []byte("v")))
	mustAppend(t, step(e, 0, record{op: opCursor, sess: Session{ID: 3, Next: 1, Total: 2}}))
	mustAppend(t, e.Part(0).Revoke())
	before := e.Part(0).Stats().WALRecords
	mustAppend(t, e.Part(0).Revoke()) // already revoked: no record
	if after := e.Part(0).Stats().WALRecords; after != before {
		t.Errorf("redundant revoke appended a record (%d -> %d)", before, after)
	}
	want := PartitionState{
		Entries: []Entry{{Key: "k", Ver: 4, Val: []byte("v")}}, MaxVer: 4, Resident: false,
		Sessions: []Session{{ID: 3, Next: 1, Total: 2}},
	}
	expectState(t, e, 0, want)
	if e.Part(0).ApplySync("k", []byte("late"), 9) {
		t.Error("revoked partition acked a sync")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2 := openTest(t, dir, 1024)
	defer e2.Close()
	expectState(t, e2, 0, want)
}

// modelState is everything the equivalence test compares per partition:
// the logical state plus the derived digest root.
type modelState struct {
	PartitionState
	Root uint64
}

func snapshotModel(e *Engine) []modelState {
	out := make([]modelState, len(e.parts))
	for p := range e.parts {
		out[p] = modelState{e.Recovered(p), e.parts[p].tree.Root()}
	}
	return out
}

// TestModelEquivalence drives the same seeded random op sequence
// through a memory-mode engine and a logged one, closing and reopening
// the logged engine at random points. After every reopen the recovered
// state must equal the pre-close live state and the memory engine's
// state — entries, maxVer, residency, sessions, done-list and AE root.
// This is the executable form of "what a holder recovers is exactly
// what it acked": live apply, WAL replay and snapshot load agree.
func TestModelEquivalence(t *testing.T) {
	const parts = 3
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		open := func() *Engine {
			e, err := Open(Options{Dir: dir, Partitions: parts, CompactEvery: 1 + rng.Intn(24)})
			if err != nil {
				t.Fatalf("seed %d: open: %v", seed, err)
			}
			return e
		}
		mem, err := Open(Options{Partitions: parts})
		if err != nil {
			t.Fatal(err)
		}
		disk := open()
		for i := 0; i < 600; i++ {
			// Every random draw happens here, before the two engines are
			// driven, so both see the identical step.
			op, p := rng.Intn(16), rng.Intn(parts)
			key := fmt.Sprintf("k%d", rng.Intn(12))
			val := []byte(fmt.Sprintf("v%d-%d", seed, i))
			sid := uint64(1 + rng.Intn(6))
			ver := uint64(1 + rng.Intn(200))
			idx := uint32(rng.Intn(3)) // random index: duplicates and reorders included
			rare := rng.Intn(5) == 0   // drops and resets are rarer than writes
			chunk := []Entry{{Key: key, Ver: ver, Val: val}, {Key: key + "x", Ver: ver / 2, Val: val}}
			var got [2]string
			for j, e := range []*Engine{mem, disk} {
				pt := e.Part(p)
				switch op {
				case 0, 1:
					v, err := pt.StampPut(key, val, uint64(i/50)<<8)
					got[j] = fmt.Sprint(v, err)
				case 2, 3:
					got[j] = fmt.Sprint(pt.ApplySync(key, val, ver))
				case 4:
					got[j] = fmt.Sprint(pt.MergeSnapshot(chunk))
				case 5:
					got[j] = fmt.Sprint(pt.Wants(chunk))
				case 6:
					got[j] = fmt.Sprint(pt.BeginInbound(sid, uint32(1+sid%2), sid%3 == 0, ver, false))
				case 7, 8:
					got[j] = fmt.Sprint(pt.ApplyChunk(sid, idx, chunk))
				case 9:
					got[j] = fmt.Sprint(pt.FinishInbound(sid))
				case 10:
					got[j] = fmt.Sprint(pt.InboundCursor(sid))
				case 11:
					if rare {
						pt.Drop()
					}
				case 12:
					if rare {
						pt.ResetEmpty()
					}
				case 13:
					got[j] = fmt.Sprint(pt.Revoke())
				case 14: // holds defer compaction; they must never change the state
					if rare {
						pt.Hold()
					} else {
						pt.Release()
					}
				case 15:
					got[j] = fmt.Sprint(e.Compact(p))
				}
			}
			if got[0] != got[1] {
				t.Fatalf("seed %d op %d (%d): memory answered %q, logged answered %q", seed, i, op, got[0], got[1])
			}
			if rng.Intn(40) == 0 {
				live := snapshotModel(disk)
				if err := disk.Close(); err != nil {
					t.Fatalf("seed %d: close: %v", seed, err)
				}
				disk = open() // holds are process-local: the reopened engine has none
				if rec := snapshotModel(disk); !reflect.DeepEqual(rec, live) {
					t.Fatalf("seed %d op %d: recovered state != pre-close live state\n got %+v\nwant %+v", seed, i, rec, live)
				}
			}
			if m, d := snapshotModel(mem), snapshotModel(disk); !reflect.DeepEqual(m, d) {
				t.Fatalf("seed %d op %d (%d): memory and logged engines diverged\n mem %+v\ndisk %+v", seed, i, op, m, d)
			}
		}
		if err := disk.Close(); err != nil {
			t.Fatal(err)
		}
		if err := mem.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
