package node

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/histcheck"
	"repro/internal/transport"
)

// quorumConfig returns testConfig with the given write/read quorums.
func quorumConfig(w, r int) Config {
	cfg := testConfig()
	cfg.WriteQuorum = w
	cfg.ReadQuorum = r
	return cfg
}

// TestQuorumMatrix exercises every valid W/R combination under the
// default availability floor (MinReplicas = 2), including the
// degenerate W=1/R=1 single-copy mode and the overlapping
// W+R > ReplicaCount combinations that guarantee a quorum read
// intersects the last quorum write.
func TestQuorumMatrix(t *testing.T) {
	cases := []struct{ w, r int }{
		{1, 1}, // degenerate: primary-only ack, local read
		{1, 2},
		{2, 1},
		{2, 2}, // W+R=4 > 2 holders: read always sees the last write
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("w%d_r%d", tc.w, tc.r), func(t *testing.T) {
			f, err := NewFleet(4, quorumConfig(tc.w, tc.r))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			for i := 0; i < 4; i++ {
				if err := f.Tick(); err != nil {
					t.Fatalf("tick %d: %v", i, err)
				}
			}
			for p := 0; p < 3; p++ {
				key := PartitionKey(p, 12)
				val := fmt.Sprintf("w%d.r%d.p%d", tc.w, tc.r, p)
				rcpt, err := f.Node(p%4).PutQuorum(key, []byte(val))
				if err != nil {
					t.Fatalf("put %s: %v", key, err)
				}
				if len(rcpt.Acked) < tc.w {
					t.Fatalf("put %s: ack set %v below W=%d", key, rcpt.Acked, tc.w)
				}
				if rcpt.Version == 0 {
					t.Fatalf("put %s: receipt carries no version", key)
				}
				for i := 0; i < 4; i++ {
					v, ok, err := f.Node(i).Get(key)
					if err != nil || !ok || string(v) != val {
						t.Fatalf("node %d get %s: got (%q, %v, %v), want %q", i, key, v, ok, err, val)
					}
				}
			}
		})
	}
}

// severing fault wrapper: while *severed is set, drops every
// replication message (sync, and the begin of every ship) so writes
// cannot reach secondary holders.
func severWrap(severed *bool) WrapTransport {
	return func(i int, tr transport.Transport) transport.Transport {
		return transport.NewFault(tr, func(from, to string, m *transport.Message) transport.FaultAction {
			if *severed && (m.Kind == KindSync || m.Kind == KindXferBegin) {
				return transport.FaultDrop
			}
			return transport.FaultDeliver
		})
	}
}

// opRecorder accumulates a histcheck history with strictly increasing
// interval timestamps, so directed node tests can assert convergence
// as "the recorded ops linearize" instead of spot-checking values.
type opRecorder struct {
	ops []histcheck.Op
	now int64
}

func (r *opRecorder) add(op histcheck.Op) {
	op.Invoke = r.now
	op.Return = r.now + 1
	r.now += 2
	r.ops = append(r.ops, op)
}

func (r *opRecorder) put(client int, key, val string, ver uint64, acked bool) {
	r.add(histcheck.Op{Client: client, Kind: histcheck.OpPut, Key: key, Value: val, Version: ver, Acked: acked})
}

func (r *opRecorder) get(client int, key, val string, ver uint64, found bool) {
	r.add(histcheck.Op{Client: client, Kind: histcheck.OpGet, Key: key, Value: val, Version: ver, Found: found})
}

// TestReadRepairHealsStaleHolder leaves one holder a version behind
// (its sync was lost and the write correctly failed its quorum), then
// shows a quorum read both returns the newest version and pushes it to
// the stale holder. Convergence is asserted through histcheck: the
// recorded history — acked v1, quorum-failed v2 (optional), the quorum
// read, and the stale holder's physical copy read back as a final op —
// must linearize, which it only does if the repair actually landed v2
// on the lagging holder.
func TestReadRepairHealsStaleHolder(t *testing.T) {
	severed := false
	f, err := NewFleetWrapped(4, quorumConfig(2, 2), severWrap(&severed))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for i := 0; i < 4; i++ {
		if err := f.Tick(); err != nil {
			t.Fatalf("tick %d: %v", i, err)
		}
	}

	key := PartitionKey(0, 12)
	primary := f.Node(0).Primaries()[0]
	holders := f.Node(0).ReplicaMap()[0]
	stale := -1
	for _, hIdx := range holders {
		if hIdx != primary {
			stale = hIdx
			break
		}
	}
	if stale < 0 {
		t.Fatalf("partition 0 has no secondary holder: %v", holders)
	}

	rec := &opRecorder{}
	rcpt1, err := f.Node(primary).PutQuorum(key, []byte("v1"))
	if err != nil {
		t.Fatalf("seed put: %v", err)
	}
	rec.put(primary, key, "v1", rcpt1.Version, true)
	_, v1ver, ok := f.Node(stale).LocalVersion(key)
	if !ok {
		t.Fatal("secondary holder missing the seeded value")
	}

	// The next write reaches only the primary: quorum correctly refused.
	severed = true
	rcpt, err := f.Node(primary).PutQuorum(key, []byte("v2"))
	if err == nil {
		t.Fatal("put met its quorum with replication severed")
	}
	if rcpt.Version <= v1ver {
		t.Fatalf("failed put's stamp %d not above prior version %d", rcpt.Version, v1ver)
	}
	rec.put(primary, key, "v2", rcpt.Version, false)
	severed = false

	// A quorum read from the primary sees v2 (self) vs v1 (stale
	// holder), returns the winner, and repairs the loser.
	v, ver, ok, err := f.Node(primary).GetVersioned(key)
	if err != nil || !ok {
		t.Fatalf("quorum read: got (%q, %v, %v)", v, ok, err)
	}
	rec.get(primary, key, string(v), ver, ok)

	// The stale holder's PHYSICAL copy, read back into the history as
	// one more op: if read-repair did not land v2 there, the history
	// shows an acked-v2-read followed by a v1 observation — which no
	// linearization can explain.
	sv, sver, sok := f.Node(stale).LocalVersion(key)
	rec.get(stale, key, string(sv), sver, sok)

	if vs := histcheck.CheckLinearizable(rec.ops); len(vs) != 0 {
		t.Fatalf("history after read-repair does not linearize:\n%v\nops:\n%v", vs, rec.ops)
	}

	// Teeth check: rewriting the final observation to the pre-repair
	// copy must make the same checker object — otherwise the assertion
	// above is vacuous.
	broken := make([]histcheck.Op, len(rec.ops))
	copy(broken, rec.ops)
	last := &broken[len(broken)-1]
	last.Value, last.Version = "v1", v1ver
	if vs := histcheck.CheckLinearizable(broken); len(vs) == 0 {
		t.Fatal("checker accepted the unrepaired history — the histcheck assertion has no teeth")
	}
}

// TestSyncFailuresAreSurfaced verifies the silent-fanout fix: replica
// syncs that never land are counted and visible on the primary, both
// through the accessor and the debug dump.
func TestSyncFailuresAreSurfaced(t *testing.T) {
	severed := false
	f, err := NewFleetWrapped(4, quorumConfig(1, 1), severWrap(&severed))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for i := 0; i < 4; i++ {
		if err := f.Tick(); err != nil {
			t.Fatalf("tick %d: %v", i, err)
		}
	}

	key := PartitionKey(0, 12)
	primary := f.Node(0).Primaries()[0]
	if got := f.Node(primary).SyncFails(); got != 0 {
		t.Fatalf("clean cluster already reports %d sync failures", got)
	}

	// W=1 acks on the primary alone, so the lost fan-out would be
	// silent without the counter.
	severed = true
	if _, err := f.Node(primary).PutQuorum(key, []byte("v")); err != nil {
		t.Fatalf("W=1 put should ack locally: %v", err)
	}
	severed = false
	got := f.Node(primary).SyncFails()
	if got == 0 {
		t.Fatal("lost replica syncs not counted")
	}
	if d := f.Node(primary).Dump(); d.SyncFails != got {
		t.Fatalf("dump reports %d sync failures, accessor %d", d.SyncFails, got)
	}
}

// TestQuorumAboveFloorRejectedAtBoot covers the runtime end of the
// validation: a fleet whose quorum exceeds the eq. (14) placement
// floor must refuse to start rather than wedge every write.
func TestQuorumAboveFloorRejectedAtBoot(t *testing.T) {
	f, err := NewFleet(4, quorumConfig(3, 1))
	if err == nil {
		f.Close()
		t.Fatal("fleet started with W above the availability floor")
	}
	if !strings.Contains(err.Error(), "quorum") {
		t.Fatalf("rejected for the wrong reason: %v", err)
	}
}

// TestQuorumReadHealsNonResidentPrimary: a primary whose copy is not
// resident answers version probes with StatusRetry, and as no one's
// sync target nothing else ever ships to it. With R=2 and holders
// {primary, co-holder}, the first read at the co-holder misses its
// quorum but ships the partition to the primary from the co-holder's
// resident copy; from then on reads succeed and the primary is
// resident.
func TestQuorumReadHealsNonResidentPrimary(t *testing.T) {
	f, err := NewFleet(4, quorumConfig(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for i := 0; i < 4; i++ {
		if err := f.Tick(); err != nil {
			t.Fatalf("tick %d: %v", i, err)
		}
	}
	key, primary, co, _ := forwardingHolder(t, f, 2)
	p := f.Node(co).PartitionOf(key)
	if err := f.Node(primary).store.Part(p).Revoke(); err != nil {
		t.Fatal(err)
	}

	if _, _, err := f.Node(co).Get(key); err == nil || !strings.Contains(err.Error(), "read quorum not met") {
		t.Fatalf("first read with a non-resident primary: err %v, want a missed read quorum", err)
	}
	if !f.Node(primary).Dump().Partitions[p].Resident {
		t.Fatal("the missed read did not ship the partition to the non-resident primary")
	}
	for i := 0; i < 2; i++ {
		if v, ok, err := f.Node(co).Get(key); err != nil || !ok || string(v) != "v0" {
			t.Fatalf("read %d after the heal: got (%q, %v, %v), want \"v0\"", i, v, ok, err)
		}
	}
}
