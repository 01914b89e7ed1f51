package node

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/durable"
	"repro/internal/transport"
)

// TestAETreeIncrementalMatchesBuild pins the XOR-leaf invariant the
// incremental update path relies on: applying records one by one, in
// any order, lands on the same digest as a bulk build, and re-applying
// a record removes it.
func TestAETreeIncrementalMatchesBuild(t *testing.T) {
	entries := make([]durable.Entry, 0, 100)
	for i := 0; i < 100; i++ {
		entries = append(entries, durable.Entry{
			Key: fmt.Sprintf("ae-key-%d", i),
			Ver: uint64(i + 1),
			Val: []byte(fmt.Sprintf("val-%d", i)),
		})
	}
	bulk := NewAETree()
	for _, e := range entries {
		bulk.Apply(e.Key, e.Ver, e.Val)
	}

	inc := NewAETree()
	for i := len(entries) - 1; i >= 0; i-- { // reverse order: leaves are order-free
		inc.Apply(entries[i].Key, entries[i].Ver, entries[i].Val)
	}
	if bulk.Root() != inc.Root() {
		t.Fatalf("bulk root %x != incremental root %x", bulk.Root(), inc.Root())
	}

	// An update is remove-old + add-new; undoing it restores the root.
	root := inc.Root()
	inc.Apply(entries[7].Key, entries[7].Ver, entries[7].Val) // remove
	inc.Apply(entries[7].Key, 999, []byte("new"))             // add new version
	if inc.Root() == root {
		t.Fatal("updating an entry did not change the root")
	}
	inc.Apply(entries[7].Key, 999, []byte("new"))
	inc.Apply(entries[7].Key, entries[7].Ver, entries[7].Val)
	if inc.Root() != root {
		t.Fatal("undoing the update did not restore the root")
	}

	empty := NewAETree()
	if empty.Root() == root {
		t.Fatal("empty tree shares a populated tree's root")
	}
}

// TestAETreeLocalizesDivergence: two trees differing in one record
// disagree on exactly that record's bucket, so a plan offers ~1/64th
// of the partition rather than all of it.
func TestAETreeLocalizesDivergence(t *testing.T) {
	a := NewAETree()
	b := NewAETree()
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("k-%d", i)
		a.Apply(key, uint64(i+1), []byte("v"))
		b.Apply(key, uint64(i+1), []byte("v"))
	}
	// b lags one write: k-3 is at version 4 on a, 204 on b.
	b.Apply("k-3", 4, []byte("v"))
	b.Apply("k-3", 204, []byte("v2"))
	if a.Root() == b.Root() {
		t.Fatal("divergent trees share a root")
	}
	la, lb := a.Leaves(), b.Leaves()
	var diff []int
	for i := range la {
		if la[i] != lb[i] {
			diff = append(diff, i)
		}
	}
	if len(diff) != 1 || diff[0] != aeBucket("k-3") {
		t.Fatalf("divergent buckets = %v, want exactly [%d]", diff, aeBucket("k-3"))
	}
}

// aeFleet is a 4-node W=R=2 fleet with anti-entropy every other epoch,
// settled by four ticks, whose wire passes every request through tap
// (nil: deliver everything). It returns the fleet, partition 0's
// primary and one of its other holders.
func aeFleet(t *testing.T, tap func(from, to string, m *transport.Message) transport.FaultAction) (f *Fleet, primary, holder int) {
	t.Helper()
	cfg := quorumConfig(2, 2)
	cfg.AEInterval = 2
	f, err := NewFleetWrapped(4, cfg, func(i int, tr transport.Transport) transport.Transport {
		return transport.NewFault(tr, func(from, to string, m *transport.Message) transport.FaultAction {
			if tap == nil {
				return transport.FaultDeliver
			}
			return tap(from, to, m)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	for i := 0; i < 4; i++ {
		if err := f.Tick(); err != nil {
			t.Fatalf("tick %d: %v", i, err)
		}
	}
	primary = f.Node(0).Primaries()[0]
	for _, h := range f.Node(0).ReplicaMap()[0] {
		if h != primary {
			return f, primary, h
		}
	}
	t.Fatalf("partition 0 has no secondary holder: %v", f.Node(0).ReplicaMap()[0])
	return nil, 0, 0
}

// tickAE ticks f through the next anti-entropy epoch (AEInterval 2).
func tickAE(t *testing.T, f *Fleet) {
	t.Helper()
	for i := 0; i < 2; i++ {
		if err := f.Tick(); err != nil {
			t.Fatalf("tick: %v", err)
		}
	}
}

// TestAntiEntropyHealsSeveredHolder is the regression test for the
// background repair path: a co-holder misses a write while severed
// (the write correctly fails its quorum), the partition reconnects,
// and WITHOUT any read touching the key the holder converges to the
// primary's copy within AEInterval epochs. The fault wrapper counts
// every read frame (KindGet and KindVer) on the wire to prove the heal
// was anti-entropy, not read-repair.
func TestAntiEntropyHealsSeveredHolder(t *testing.T) {
	severed := false
	reads := 0
	f, primary, stale := aeFleet(t, func(from, to string, m *transport.Message) transport.FaultAction {
		if m.Kind == KindGet || m.Kind == KindVer {
			reads++
		}
		if severed && (m.Kind == KindSync || m.Kind == KindXferBegin) {
			return transport.FaultDrop
		}
		return transport.FaultDeliver
	})
	key := PartitionKey(0, 12)
	if _, err := f.Node(primary).PutQuorum(key, []byte("v1")); err != nil {
		t.Fatalf("seed put: %v", err)
	}

	severed = true
	rcpt, err := f.Node(primary).PutQuorum(key, []byte("v2"))
	if err == nil {
		t.Fatal("put met its quorum with replication severed")
	}
	severed = false

	// The holder reconnected divergent. No reads are issued from here
	// on — the next AEInterval boundary must reconcile it.
	healed := -1
	for i := 1; i <= 2; i++ {
		if err := f.Tick(); err != nil {
			t.Fatalf("heal tick %d: %v", i, err)
		}
		if sv, sver, ok := f.Node(stale).LocalVersion(key); ok && string(sv) == "v2" && sver == rcpt.Version {
			healed = i
			break
		}
	}
	if healed < 0 {
		sv, sver, ok := f.Node(stale).LocalVersion(key)
		t.Fatalf("holder still divergent after 2 epochs: (%q, %d, %v), want (v2, %d)", sv, sver, ok, rcpt.Version)
	}
	if reads != 0 {
		t.Fatalf("heal used %d read frames on the wire — that is read-repair, not anti-entropy", reads)
	}
	st := f.Node(primary).AEStats()
	if st.Rounds == 0 || st.Sessions == 0 {
		t.Errorf("primary published %d roots and opened %d sessions, want both > 0", st.Rounds, st.Sessions)
	}
	if st.Repairs != 1 || st.PayloadBytes == 0 {
		t.Errorf("primary repaired %d entries in %d bytes, want the one missed write", st.Repairs, st.PayloadBytes)
	}
	if d := f.Node(primary).Dump(); d.AntiEntropy != st {
		t.Errorf("dump anti-entropy stats %+v diverge from accessor %+v", d.AntiEntropy, st)
	}
	if xs := f.Node(primary).TransferStats(); xs.BytesSent != 0 {
		t.Errorf("AE bytes booked on TransferStats too (%d), want them counted once", xs.BytesSent)
	}
}

// TestAERepairCountsOnlyAcceptedPushes: a key only the holder has
// flows back to the primary through the holder's AE session, and a
// push that never reaches the primary is not a repair. With the
// holder's begins dropped on the wire its Repairs counter stays put;
// once the session gets through, the key lands and counts.
func TestAERepairCountsOnlyAcceptedPushes(t *testing.T) {
	var primaryAddr string
	dropPushes, dropped := true, 0
	f, primary, holder := aeFleet(t, func(from, to string, m *transport.Message) transport.FaultAction {
		if dropPushes && to == primaryAddr && m.Kind == KindXferBegin {
			dropped++
			return transport.FaultDrop
		}
		return transport.FaultDeliver
	})
	primaryAddr = f.Addr(primary)
	extra := []durable.Entry{{Key: "ae-backflow-key", Ver: 1 << 50, Val: []byte("holder-only")}}
	if err := f.Node(holder).store.Part(0).MergeSnapshot(extra); err != nil {
		t.Fatalf("seed holder-only key: %v", err)
	}
	tickAE(t, f)
	if dropped == 0 {
		t.Fatal("no backflow push was attempted — the scenario did not diverge")
	}
	if got := f.Node(holder).AEStats().Repairs; got != 0 {
		t.Fatalf("Repairs = %d while every push was dropped", got)
	}
	dropPushes = false
	tickAE(t, f)
	if got := f.Node(holder).AEStats().Repairs; got != 1 {
		t.Fatalf("Repairs = %d after the push got through, want 1", got)
	}
	if v, _, ok, _ := f.Node(primary).store.Part(0).Get(extra[0].Key); !ok || string(v) != "holder-only" {
		t.Error("the holder-only key did not reach the primary")
	}
}

// TestAEStaleCopyNeverRollsBack: each side of a round holds one key
// newer than the other. Both sessions run, each side ends with the
// newer version of both keys, and neither stale copy overwrites.
func TestAEStaleCopyNeverRollsBack(t *testing.T) {
	f, primary, holder := aeFleet(t, nil)
	pp, hp := f.Node(primary).store.Part(0), f.Node(holder).store.Part(0)
	for _, seed := range []struct {
		part *durable.Partition
		e    durable.Entry
	}{
		{pp, durable.Entry{Key: "ae-p-newer", Ver: 1 << 40, Val: []byte("old")}},
		{hp, durable.Entry{Key: "ae-p-newer", Ver: 1 << 40, Val: []byte("old")}},
		{pp, durable.Entry{Key: "ae-p-newer", Ver: 1<<40 + 2, Val: []byte("new")}},
		{hp, durable.Entry{Key: "ae-h-newer", Ver: 1 << 40, Val: []byte("old")}},
		{pp, durable.Entry{Key: "ae-h-newer", Ver: 1 << 40, Val: []byte("old")}},
		{hp, durable.Entry{Key: "ae-h-newer", Ver: 1<<40 + 2, Val: []byte("new")}},
	} {
		if err := seed.part.MergeSnapshot([]durable.Entry{seed.e}); err != nil {
			t.Fatal(err)
		}
	}
	tickAE(t, f)
	for _, part := range []*durable.Partition{pp, hp} {
		for _, k := range []string{"ae-p-newer", "ae-h-newer"} {
			if v, ver, ok, _ := part.Get(k); !ok || string(v) != "new" || ver != 1<<40+2 {
				t.Errorf("%s = (%q, %#x, %v), want the newer version", k, v, ver, ok)
			}
		}
	}
	for _, i := range []int{primary, holder} {
		if st := f.Node(i).AEStats(); st.Repairs != 1 {
			t.Errorf("node %d repaired %d entries, want its one newer key", i, st.Repairs)
		}
	}
}

// TestNonResidentHolderTakesNoAERound: a holder whose copy is not
// resident, or that is still recovering its view, publishes no root,
// and so no peer opens an AE session toward it — comparing against a
// partial copy would call every difference a repair.
func TestNonResidentHolderTakesNoAERound(t *testing.T) {
	var holderAddr string
	var stats, xfers int
	f, primary, holder := aeFleet(t, func(from, to string, m *transport.Message) transport.FaultAction {
		if to == holderAddr && m.Kind >= KindXferBegin && m.Kind <= KindXferOffer {
			xfers++
		}
		if from == holderAddr && m.Kind == KindStats {
			blob, err := decodeStats(m.Value, 12, 4)
			if err == nil && slices.ContainsFunc(blob.roots, func(r aeRoot) bool { return r.partition == 0 }) {
				stats++
			}
		}
		return transport.FaultDeliver
	})
	holderAddr = f.Addr(holder)
	f.Node(holder).store.Part(0).Drop()
	tickAE(t, f)
	if stats != 0 || xfers != 0 {
		t.Errorf("non-resident holder published %d roots for partition 0 and took %d transfer frames", stats, xfers)
	}
	if st := f.Node(primary).AEStats(); st.Sessions != 0 {
		t.Errorf("primary opened %d AE sessions", st.Sessions)
	}

	//lint:ignore rfhlint/closecheck Node borrows the fleet's slot; f.Close owns shutdown
	nd := f.Node(holder)
	nd.mu.Lock()
	nd.recovering = true
	roots := nd.aeRootsLocked()
	nd.recovering = false
	nd.mu.Unlock()
	if roots != nil {
		t.Errorf("recovering node published roots %v", roots)
	}
}

// TestAESessionNeverMarksResident: an AE session toward a copy that is
// not resident delivers its entries but leaves the copy non-resident,
// and none of its begins carries the mark flag — residency is a
// placement decision, never an anti-entropy side effect.
func TestAESessionNeverMarksResident(t *testing.T) {
	marked := 0
	f, primary, holder := aeFleet(t, func(from, to string, m *transport.Message) transport.FaultAction {
		if m.Kind == KindXferBegin {
			if _, mark, _, _, err := decodeXferBegin(m.Value); err == nil && mark {
				marked++
			}
		}
		return transport.FaultDeliver
	})
	//lint:ignore rfhlint/closecheck Node borrows the fleet's slot; f.Close owns shutdown
	src, dst := f.Node(primary), f.Node(holder)
	entries := seedPartition(t, src, 0, 3)
	marked = 0 // the settling ticks' placement ships mark, as they should
	for _, revoke := range []bool{false, true} {
		if revoke {
			if err := dst.store.Part(0).Revoke(); err != nil {
				t.Fatal(err)
			}
		} else {
			dst.store.Part(0).Drop()
		}
		src.mu.RLock()
		src.startAESessionLocked(0, holder)
		src.mu.RUnlock()
		src.pumpTransfers()
		if marked != 0 || dst.store.Part(0).Stats().Resident {
			t.Fatalf("revoked=%v: %d marking begins, target resident %v", revoke, marked, dst.store.Part(0).Stats().Resident)
		}
		if _, _, ok, _ := dst.store.Part(0).Get(entries[0].Key); !ok {
			t.Errorf("revoked=%v: the AE session delivered nothing", revoke)
		}
	}
}

// TestAEInSyncRoundSendsOnlyStats: on an anti-entropy epoch of a fleet
// whose holders agree, the roots match and no frame but the stats
// broadcast goes on the wire.
func TestAEInSyncRoundSendsOnlyStats(t *testing.T) {
	counting := false
	other := 0
	f, _, _ := aeFleet(t, func(from, to string, m *transport.Message) transport.FaultAction {
		if counting && m.Kind != KindStats {
			other++
		}
		return transport.FaultDeliver
	})
	for p := 0; p < 12; p++ {
		if err := f.Node(0).Put(PartitionKey(p, 12), []byte("v")); err != nil {
			t.Fatalf("put %d: %v", p, err)
		}
	}
	before := make([]AEStats, f.Len())
	for i := range before {
		before[i] = f.Node(i).AEStats()
	}
	counting = true
	tickAE(t, f)
	if other != 0 {
		t.Errorf("%d frames besides the stats broadcast on an in-sync AE epoch", other)
	}
	synced := int64(0)
	for i := range before {
		st := f.Node(i).AEStats()
		synced += st.Synced - before[i].Synced
		if st.Sessions != before[i].Sessions {
			t.Errorf("node %d opened %d AE sessions in sync", i, st.Sessions-before[i].Sessions)
		}
	}
	if synced == 0 {
		t.Error("no root was compared — the round did not run")
	}
}
