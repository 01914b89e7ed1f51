package durable

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// realFiles drives a logged engine through every op (with a compaction
// in the middle, so snapshots exist too) and returns the bytes of the
// files it left behind matching pattern — the fuzzers' seed corpus.
func realFiles(f *testing.F, pattern string) [][]byte {
	f.Helper()
	dir := f.TempDir()
	e, err := Open(Options{Dir: dir, Partitions: 2, CompactEvery: 1 << 20})
	if err != nil {
		f.Fatal(err)
	}
	for p := 0; p < 2; p++ {
		pt := e.Part(p)
		chunk := []Entry{{Key: "c", Ver: 3, Val: []byte("chunk")}}
		_, err := pt.StampPut("a", []byte("va"), 7<<20)
		steps := []error{err, pt.MergeSnapshot(chunk)}
		_, _, err = pt.BeginInbound(9, 2, true, 40, false)
		steps = append(steps, err)
		_, _, err = pt.ApplyChunk(9, 0, chunk)
		steps = append(steps, err, e.Compact(p))
		_, _, err = pt.BeginInbound(10, 0, false, 0, false)
		steps = append(steps, err)
		_, _, _, err = pt.FinishInbound(10)
		steps = append(steps, err, pt.Revoke())
		if p == 1 {
			pt.Drop()
			pt.ResetEmpty()
			steps = append(steps, e.AppendPut(p, "z", 99, nil), e.Compact(p), e.AppendPut(p, "tail", 100, []byte("t")))
		}
		for i, err := range steps {
			if err != nil {
				f.Fatalf("partition %d step %d: %v", p, i, err)
			}
		}
	}
	if err := e.Close(); err != nil {
		f.Fatal(err)
	}
	paths, err := filepath.Glob(filepath.Join(dir, pattern))
	if err != nil || len(paths) != 2 {
		f.Fatalf("seed files %q: %v %v", pattern, paths, err)
	}
	var out [][]byte
	for _, path := range paths {
		buf, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		out = append(out, buf)
	}
	return out
}

// requireReencodes is the accepted-input property: whatever state the
// decoder built must fit in the bytes it was built from (no
// over-allocation) and must survive its own snapshot encoding unchanged.
func requireReencodes(t *testing.T, pt *Partition, input int) {
	t.Helper()
	if pt.bytes > input {
		t.Fatalf("decoded %d payload bytes out of a %d-byte input", pt.bytes, input)
	}
	var again Partition
	again.init(nil, 0)
	if err := decodeSnapshot(appendSnapshot(nil, pt), &again); err != nil {
		t.Fatalf("re-encoded state does not load: %v", err)
	}
	if a, b := pt.State(), again.State(); !reflect.DeepEqual(a, b) || pt.tree.Root() != again.tree.Root() {
		t.Fatalf("state changed across re-encoding:\n was %+v\n now %+v", a, b)
	}
}

// FuzzReplayWAL feeds arbitrary bytes to WAL replay: never a panic, and
// any image replay accepts re-encodes to an equal state.
func FuzzReplayWAL(f *testing.F) {
	for _, seed := range realFiles(f, "*.wal") {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		var pt Partition
		pt.init(nil, 0)
		if _, good, err := replayRecords(buf, &pt); err == nil {
			requireReencodes(t, &pt, good)
		}
	})
}

// FuzzLoadSnapshot is the same contract for the snapshot decoder.
func FuzzLoadSnapshot(f *testing.F) {
	for _, seed := range realFiles(f, "*.snap") {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		var pt Partition
		pt.init(nil, 0)
		if decodeSnapshot(buf, &pt) == nil {
			requireReencodes(t, &pt, len(buf))
		}
	})
}
