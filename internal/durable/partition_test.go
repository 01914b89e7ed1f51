package durable

import "testing"

// memPart returns partition p of a fresh memory-mode engine — the same
// machine the logged tests drive, with no log.
func memPart(t *testing.T, p int) *Partition {
	t.Helper()
	e, err := Open(Options{Partitions: 4})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	t.Cleanup(func() { _ = e.Close() }) // a memory engine holds no files; Close cannot fail
	return e.Part(p)
}

// TestInboundSessionIdempotence pins the target-side replay contract:
// a replayed begin re-finds the live session (and answers "complete"
// once it finished), and a duplicated or reordered chunk is acked
// without moving the cursor or touching the data.
func TestInboundSessionIdempotence(t *testing.T) {
	pt := memPart(t, 2)
	const sid = uint64(42)
	chunk0 := []Entry{{Key: "a", Val: []byte("1"), Ver: 5}}
	chunk1 := []Entry{{Key: "b", Val: []byte("2"), Ver: 6}}

	if next, _, err := pt.BeginInbound(sid, 2, true, 9, false); err != nil || next != 0 {
		t.Fatalf("fresh begin: next=%d err=%v", next, err)
	}
	if v := pt.State().MaxVer; v != 9 {
		t.Fatalf("begin did not adopt source watermark: maxVer=%d", v)
	}
	if next, known, err := pt.ApplyChunk(sid, 0, chunk0); err != nil || !known || next != 1 {
		t.Fatalf("chunk 0: next=%d known=%v err=%v", next, known, err)
	}
	// Replayed begin: the session exists, so the reply is its cursor,
	// not a reset to 0.
	if next, _, err := pt.BeginInbound(sid, 2, true, 9, false); err != nil || next != 1 {
		t.Fatalf("replayed begin: next=%d err=%v, want cursor 1", next, err)
	}
	// Duplicate chunk 0: acked with the current cursor, nothing moves.
	if next, known, err := pt.ApplyChunk(sid, 0, chunk0); err != nil || !known || next != 1 {
		t.Fatalf("duplicate chunk: next=%d known=%v err=%v", next, known, err)
	}
	// Premature done: retry with the cursor.
	if next, known, complete, err := pt.FinishInbound(sid); err != nil || !known || complete || next != 1 {
		t.Fatalf("premature done: next=%d known=%v complete=%v err=%v", next, known, complete, err)
	}
	if next, known, err := pt.ApplyChunk(sid, 1, chunk1); err != nil || !known || next != 2 {
		t.Fatalf("chunk 1: next=%d known=%v err=%v", next, known, err)
	}
	if _, known, complete, err := pt.FinishInbound(sid); err != nil || !known || !complete {
		t.Fatalf("done: known=%v complete=%v err=%v", known, complete, err)
	}
	// Post-completion replays: begin, chunk and done all answer
	// "already complete".
	if next, _, err := pt.BeginInbound(sid, 2, true, 9, false); err != nil || next != CursorComplete {
		t.Fatalf("begin after completion: next=%d err=%v", next, err)
	}
	if next, known, err := pt.ApplyChunk(sid, 0, chunk0); err != nil || !known || next != CursorComplete {
		t.Fatalf("chunk after completion: next=%d known=%v err=%v", next, known, err)
	}
	if next, known, complete, err := pt.FinishInbound(sid); err != nil || !known || !complete || next != CursorComplete {
		t.Fatalf("done after completion: next=%d known=%v complete=%v err=%v", next, known, complete, err)
	}
	// An unknown session answers known=false everywhere: the source
	// must re-begin.
	if _, known, _ := pt.ApplyChunk(999, 0, chunk0); known {
		t.Error("chunk for unknown session claimed known")
	}
	if _, known := pt.InboundCursor(999); known {
		t.Error("cursor probe for unknown session claimed known")
	}
}

// TestDropInvalidatesInboundSessions pins the drop/transfer
// interaction: a drop discards the entries an inbound session already
// merged, so the session (and the done-list) must die with the data —
// a post-drop chunk or done answers unknown (StatusNotFound on the
// wire) and the source re-begins from chunk 0 over the emptied
// partition. Letting the cursor survive would finish the session with
// only a suffix of the source snapshot and mark the partition
// resident with acked keys silently missing.
func TestDropInvalidatesInboundSessions(t *testing.T) {
	pt := memPart(t, 1)
	chunk := []Entry{{Key: "a", Val: []byte("1"), Ver: 1}}

	// A mid-flight session: begun, one of two chunks merged.
	const live = uint64(7)
	if next, _, err := pt.BeginInbound(live, 2, true, 0, false); err != nil || next != 0 {
		t.Fatalf("begin: next=%d err=%v", next, err)
	}
	if _, known, err := pt.ApplyChunk(live, 0, chunk); err != nil || !known {
		t.Fatalf("chunk 0: known=%v err=%v", known, err)
	}
	// A session completed and retired to the done-list before the drop.
	const finished = uint64(8)
	if _, _, err := pt.BeginInbound(finished, 1, false, 0, false); err != nil {
		t.Fatal(err)
	}
	if _, _, err := pt.ApplyChunk(finished, 0, chunk); err != nil {
		t.Fatal(err)
	}
	if _, _, complete, err := pt.FinishInbound(finished); err != nil || !complete {
		t.Fatalf("finish: complete=%v err=%v", complete, err)
	}

	pt.Drop()

	if _, known, _ := pt.ApplyChunk(live, 1, chunk); known {
		t.Error("post-drop chunk still found the session")
	}
	if _, known, _, _ := pt.FinishInbound(live); known {
		t.Error("post-drop done still found the session")
	}
	if _, known := pt.InboundCursor(live); known {
		t.Error("post-drop cursor probe still found the session")
	}
	if next, _, err := pt.BeginInbound(live, 2, true, 0, false); err != nil || next != 0 {
		t.Fatalf("re-begin after drop: next=%d err=%v, want cursor 0", next, err)
	}
	// The done-list cleared too: a replayed begin of the pre-drop
	// completed session re-runs it instead of answering "complete" over
	// an emptied partition.
	if next, _, err := pt.BeginInbound(finished, 1, false, 0, false); err != nil || next != 0 {
		t.Fatalf("replayed begin of pre-drop session: next=%d err=%v, want cursor 0", next, err)
	}

	// ResetEmpty (lost-data reseed) invalidates the same way.
	pt.ResetEmpty()
	if _, known, _ := pt.ApplyChunk(live, 0, chunk); known {
		t.Error("post-reset chunk still found the session")
	}
}
