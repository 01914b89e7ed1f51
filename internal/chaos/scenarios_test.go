package chaos

import (
	"strings"
	"testing"

	"repro/internal/node"
	"repro/internal/transport"
)

// Directed crash scenarios for the quorum data plane. Unlike the
// seeded matrix, these stage one precise failure each: they are the
// executable form of the durability contract — an acked W=2 write
// survives the crash of everything outside its ack set, including the
// primary — and of its converse: a write that cannot reach a quorum is
// refused, not acked. Before the quorum data plane existed, Put acked
// after the primary's local apply alone, so both crash scenarios lost
// the value and the severed-replication scenario acked a write whose
// only copy was the primary.

// scenarioConfig is the shared fleet shape: 5 nodes, W=R=2 (the
// eq. 14 floor at default rates), fast suspicion.
func scenarioConfig() node.Config {
	cfg := node.DefaultConfig(0, nil)
	cfg.Partitions = 8
	cfg.ReplicaCapacity = 8
	cfg.SuspectAfter = 2
	cfg.Seed = 99
	cfg.WriteQuorum = 2
	cfg.ReadQuorum = 2
	return cfg
}

func warm(t *testing.T, f *node.Fleet, epochs int) {
	t.Helper()
	for i := 0; i < epochs; i++ {
		if err := f.Tick(); err != nil {
			t.Fatalf("warm tick %d: %v", i, err)
		}
	}
}

// TestAckedWriteSurvivesQuorumComplementCrash is the acceptance
// scenario for strict durability: ack a W=2 write, then crash every
// node OUTSIDE the ack set between epochs. The surviving quorum must
// keep the value readable through suspicion, re-placement and the
// crashed nodes' empty-handed return.
func TestAckedWriteSurvivesQuorumComplementCrash(t *testing.T) {
	f, err := node.NewFleet(5, scenarioConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	warm(t, f, 4)

	key := node.PartitionKey(0, 8)
	val := []byte("survives-complement-crash")
	rcpt, err := f.Node(0).PutQuorum(key, val)
	if err != nil {
		t.Fatalf("quorum put: %v", err)
	}
	if len(rcpt.Acked) < 2 {
		t.Fatalf("ack set %v smaller than write quorum", rcpt.Acked)
	}

	inAckSet := make(map[int]bool)
	for _, i := range rcpt.Acked {
		inAckSet[i] = true
	}
	crashed := []int{}
	for i := 0; i < f.Len(); i++ {
		if !inAckSet[i] {
			f.Crash(i)
			crashed = append(crashed, i)
		}
	}
	if len(crashed) == 0 {
		t.Fatal("ack set covered the whole fleet; scenario needs a complement to crash")
	}

	// Ride out suspicion and re-placement on the survivors alone.
	for i := 0; i < 6; i++ {
		if err := f.Tick(); err != nil {
			t.Fatalf("survivor tick %d: %v", i, err)
		}
	}
	for _, i := range rcpt.Acked {
		v, ok, err := f.Node(i).Get(key)
		if err != nil || !ok || string(v) != string(val) {
			t.Fatalf("survivor %d after complement crash: got (%q, %v, %v), want %q",
				i, v, ok, err, val)
		}
	}

	// The crashed nodes return empty; their rejoin must not shadow or
	// resurrect anything.
	for _, i := range crashed {
		if err := f.Restart(i); err != nil {
			t.Fatalf("restart %d: %v", i, err)
		}
	}
	warm(t, f, 6)
	for i := 0; i < f.Len(); i++ {
		v, ok, err := f.Node(i).Get(key)
		if err != nil || !ok || string(v) != string(val) {
			t.Fatalf("node %d after full recovery: got (%q, %v, %v), want %q",
				i, v, ok, err, val)
		}
	}
}

// TestAckedWriteSurvivesPrimaryCrashMidWrite kills the decision-maker
// the instant after it acked a write — the classic lost-update window.
// The write's other quorum member must carry the value through
// failover, and the successor primary must serve it at a version no
// lower than the receipt's.
func TestAckedWriteSurvivesPrimaryCrashMidWrite(t *testing.T) {
	f, err := node.NewFleet(5, scenarioConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	warm(t, f, 4)

	key := node.PartitionKey(0, 8)
	primary := f.Node(0).Primaries()[0]
	val := []byte("survives-primary-crash")
	rcpt, err := f.Node(0).PutQuorum(key, val)
	if err != nil {
		t.Fatalf("quorum put: %v", err)
	}

	f.Crash(primary)
	for i := 0; i < 6; i++ {
		if err := f.Tick(); err != nil {
			t.Fatalf("failover tick %d: %v", i, err)
		}
	}

	entry := 0
	if primary == 0 {
		entry = 1
	}
	v, ok, err := f.Node(entry).Get(key)
	if err != nil || !ok || string(v) != string(val) {
		t.Fatalf("read after primary crash: got (%q, %v, %v), want %q", v, ok, err, val)
	}
	// Version monotonicity across failover: some live holder serves the
	// key at the receipt's version or newer.
	best := uint64(0)
	for i := 0; i < f.Len(); i++ {
		if !f.Alive(i) {
			continue
		}
		if _, ver, ok := f.Node(i).LocalVersion(key); ok && ver > best {
			best = ver
		}
	}
	if best < rcpt.Version {
		t.Fatalf("post-failover version %d below acked receipt version %d", best, rcpt.Version)
	}
}

// TestQuorumWriteRefusedWhenReplicationSevered severs every
// replication path (KindSync, and the StatusRetry ship fallback at its
// KindXferBegin) and requires a W=2 put to come back as an error
// naming the quorum shortfall. This is the converse bug the quorum data plane fixes:
// the pre-quorum Put acked after the primary's local apply even when
// zero replicas heard about the write.
func TestQuorumWriteRefusedWhenReplicationSevered(t *testing.T) {
	severed := false
	wrap := func(i int, tr transport.Transport) transport.Transport {
		return transport.NewFault(tr, func(from, to string, m *transport.Message) transport.FaultAction {
			if severed && (m.Kind == node.KindSync || m.Kind == node.KindXferBegin) {
				return transport.FaultDrop
			}
			return transport.FaultDeliver
		})
	}
	f, err := node.NewFleetWrapped(5, scenarioConfig(), wrap)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	warm(t, f, 4)

	key := node.PartitionKey(0, 8)
	primary := f.Node(0).Primaries()[0]

	severed = true
	_, err = f.Node(primary).PutQuorum(key, []byte("must-not-ack"))
	if err == nil {
		t.Fatal("W=2 put acked with all replication paths severed")
	}
	if !strings.Contains(err.Error(), "write quorum not met") {
		t.Fatalf("put failed for the wrong reason: %v", err)
	}

	severed = false
	if _, err := f.Node(primary).PutQuorum(key, []byte("acks-again")); err != nil {
		t.Fatalf("put still failing after replication restored: %v", err)
	}
}
