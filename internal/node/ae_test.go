package node

import (
	"fmt"
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
	bulk := buildAETree(entries)

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
// disagree on exactly that record's bucket, so a repair ships ~1/64th
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

// TestAntiEntropyHealsSeveredHolder is the regression test for the
// background repair path: a co-holder misses a write while severed
// (the write correctly fails its quorum), the partition reconnects,
// and WITHOUT any read touching the key the holder converges to the
// primary's copy within AEInterval epochs. The fault wrapper counts
// every read frame (KindGet and KindVer) on the wire to prove the heal
// was anti-entropy, not read-repair.
func TestAntiEntropyHealsSeveredHolder(t *testing.T) {
	cfg := quorumConfig(2, 2)
	cfg.AEInterval = 2
	severed := false
	reads := 0
	wrap := func(i int, tr transport.Transport) transport.Transport {
		return transport.NewFault(tr, func(from, to string, m *transport.Message) transport.FaultAction {
			if m.Kind == KindGet || m.Kind == KindVer {
				reads++
			}
			if severed && (m.Kind == KindSync || m.Kind == KindXferBegin) {
				return transport.FaultDrop
			}
			return transport.FaultDeliver
		})
	}
	f, err := NewFleetWrapped(4, cfg, wrap)
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
	for i := 1; i <= cfg.AEInterval; i++ {
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
		t.Fatalf("holder still divergent after %d epochs: (%q, %d, %v), want (v2, %d)",
			cfg.AEInterval, sv, sver, ok, rcpt.Version)
	}
	if reads != 0 {
		t.Fatalf("heal used %d read frames on the wire — that is read-repair, not anti-entropy", reads)
	}
	st := f.Node(primary).AEStats()
	if st.Rounds == 0 {
		t.Error("primary initiated no anti-entropy rounds")
	}
	if st.Repairs == 0 {
		t.Error("primary shipped no repair payloads — the heal came from somewhere else")
	}
	if d := f.Node(primary).Dump(); d.AntiEntropy != st {
		t.Errorf("dump anti-entropy stats %+v diverge from accessor %+v", d.AntiEntropy, st)
	}
	if hs := f.Node(stale).AEStats(); hs.Healed == 0 {
		t.Error("healed holder counts no merged entries")
	}
}

// TestAEDigestRefusedByNonResident: a digest aimed at a node that is
// not a resident holder must come back StatusRetry — comparing against
// a partial tree would "repair" divergence into existence.
func TestAEDigestRefusedByNonResident(t *testing.T) {
	h := newHarness(t, "loopback", 3, testConfig())
	h.tick()
	h.tick()

	const key = "ae-nonresident-key"
	p := h.nodes[0].PartitionOf(key)
	h.nodes[0].mu.RLock()
	prim := h.nodes[0].view.primary(p)
	h.nodes[0].mu.RUnlock()

	// Make a non-primary node non-resident for p: a drop empties its
	// store copy (the view may still list it as holder, which is
	// exactly the half-state the handler must refuse on).
	victim := (prim + 1) % len(h.nodes)
	if resp, err := h.nodes[victim].Handle("test", &transport.Message{Kind: KindDrop, Partition: uint32(p)}); err != nil {
		t.Fatalf("drop: %v", err)
	} else if resp.Status != transport.StatusOK {
		t.Fatalf("drop refused with status %d", resp.Status)
	}
	tree := NewAETree()
	resp, err := h.nodes[victim].Handle("test", &transport.Message{
		Kind:      KindAEDigest,
		Partition: uint32(p),
		Value:     appendAESub(nil, []int{0}, [][]uint64{tree.SubLeaves(0)}),
	})
	if err != nil {
		t.Fatalf("digest at non-resident: %v", err)
	}
	if resp.Status != transport.StatusRetry {
		t.Fatalf("non-resident holder answered status %d, want StatusRetry", resp.Status)
	}
	// The value-fetch leg must bounce off the same residency guard.
	resp, err = h.nodes[victim].Handle("test", &transport.Message{
		Kind:      KindAEFetch,
		Partition: uint32(p),
		Value:     appendAEKeys(nil, []string{"ae-k"}),
	})
	if err != nil {
		t.Fatalf("fetch at non-resident: %v", err)
	}
	if resp.Status != transport.StatusRetry {
		t.Fatalf("non-resident holder served a fetch (status %d), want StatusRetry", resp.Status)
	}
	// A repair payload must bounce off the same guard.
	resp, err = h.nodes[victim].Handle("test", &transport.Message{
		Kind:      KindAERepair,
		Partition: uint32(p),
		Value:     appendEntries(nil, []durable.Entry{{Key: "ae-k", Ver: 1, Val: []byte("v")}}),
	})
	if err != nil {
		t.Fatalf("repair at non-resident: %v", err)
	}
	if resp.Status != transport.StatusRetry {
		t.Fatalf("non-resident holder applied a repair (status %d), want StatusRetry", resp.Status)
	}
}

// TestAERepairCountsOnlyAcceptedPushes: a holder's backflow push that
// never reaches the primary is not a repair. With KindAERepair dropped
// on the wire the holder's Repairs counter stays put; once the push
// gets through, it counts.
func TestAERepairCountsOnlyAcceptedPushes(t *testing.T) {
	cfg := quorumConfig(2, 2)
	cfg.AEInterval = 2
	dropRepairs, dropped := true, 0
	wrap := func(i int, tr transport.Transport) transport.Transport {
		return transport.NewFault(tr, func(from, to string, m *transport.Message) transport.FaultAction {
			if m.Kind == KindAERepair && dropRepairs {
				dropped++
				return transport.FaultDrop
			}
			return transport.FaultDeliver
		})
	}
	f, err := NewFleetWrapped(4, cfg, wrap)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for i := 0; i < 4; i++ {
		if err := f.Tick(); err != nil {
			t.Fatalf("tick %d: %v", i, err)
		}
	}
	primary := f.Node(0).Primaries()[0]
	holder := -1
	for _, h := range f.Node(0).ReplicaMap()[0] {
		if h != primary {
			holder = h
			break
		}
	}
	if holder < 0 {
		t.Fatal("partition 0 has no secondary holder")
	}
	// A key only the holder has: the AE walk must push it back.
	extra := []durable.Entry{{Key: "ae-backflow-key", Ver: 1 << 50, Val: []byte("holder-only")}}
	if _, applied, err := f.Node(holder).store.Part(0).MergeResident(extra); err != nil || !applied {
		t.Fatalf("seed holder-only key: applied=%v err=%v", applied, err)
	}
	before := f.Node(holder).AEStats().Repairs
	for i := 0; i < cfg.AEInterval; i++ {
		if err := f.Tick(); err != nil {
			t.Fatalf("tick: %v", err)
		}
	}
	if dropped == 0 {
		t.Fatal("no backflow push was attempted — the scenario did not diverge")
	}
	if got := f.Node(holder).AEStats().Repairs; got != before {
		t.Fatalf("Repairs moved %d → %d while every push was dropped", before, got)
	}
	dropRepairs = false
	for i := 0; i < cfg.AEInterval; i++ {
		if err := f.Tick(); err != nil {
			t.Fatalf("tick: %v", err)
		}
	}
	if got := f.Node(holder).AEStats().Repairs; got != before+1 {
		t.Fatalf("Repairs = %d after the push got through, want %d", got, before+1)
	}
	if _, _, ok, _ := f.Node(primary).store.Part(0).Get(extra[0].Key); !ok {
		t.Error("the accepted push did not land at the primary")
	}
}
