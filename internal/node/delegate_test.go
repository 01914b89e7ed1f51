package node

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/transport"
	"repro/internal/workload"
)

// putProbe wraps one node's transport: it counts the KindSync messages
// the node sends (into a counter the whole fleet shares), records
// whether the node's last proxied put offered its copy and whether the
// primary accepted, and can run a hook after a KindPut reply arrived
// and before the node sees it.
type putProbe struct {
	transport.Transport
	syncs       *atomic.Int64
	offered     bool
	accepted    bool
	beforeReply func()
}

func (pp *putProbe) Send(peer string, req *transport.Message) (*transport.Message, error) {
	if req.Kind == KindSync {
		pp.syncs.Add(1)
	}
	resp, err := pp.Transport.Send(peer, req)
	if req.Kind == KindPut {
		pp.offered = req.Cursor == putDelegate
		pp.accepted = err == nil && resp.Cursor == putDelegate
		if pp.beforeReply != nil {
			pp.beforeReply()
		}
	}
	return resp, err
}

// probedFleet is a 4-node loopback fleet with write quorum w whose
// every node sends through a putProbe, run for six epochs of zipf
// traffic: its partitions end with two or three holders.
func probedFleet(t *testing.T, w int) (*Fleet, []*putProbe, *atomic.Int64) {
	t.Helper()
	cfg := quorumConfig(w, 1)
	syncs := new(atomic.Int64)
	probes := make([]*putProbe, 4)
	f, err := NewFleetWrapped(4, cfg, func(i int, tr transport.Transport) transport.Transport {
		probes[i] = &putProbe{Transport: tr, syncs: syncs}
		return probes[i]
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	gen, err := workload.NewZipfPartitions(workload.Config{
		Partitions: cfg.Partitions, DCs: 4, Lambda: 5, Seed: 11,
	}, 1.1)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 6; e++ {
		f.Replay(gen.Epoch(e))
		if err := f.Tick(); err != nil {
			t.Fatalf("tick %d: %v", e, err)
		}
	}
	return f, probes, syncs
}

// forwardingHolder picks the first partition with exactly n holders in
// every node's view and returns its key, primary, its lowest other
// holder and the holder set, after a put at the primary gave every
// holder a first version.
func forwardingHolder(t *testing.T, f *Fleet, n int) (key string, primary, fwd int, holders []int) {
	t.Helper()
	primaries, replicas := f.Node(0).Primaries(), f.Node(0).ReplicaMap()
	agree := func(p int) bool {
		for i := 1; i < f.Len(); i++ {
			if f.Node(i).Primaries()[p] != primaries[p] || !reflect.DeepEqual(f.Node(i).ReplicaMap()[p], replicas[p]) {
				return false
			}
		}
		return true
	}
	for p, hs := range replicas {
		if len(hs) != n || !agree(p) {
			continue
		}
		fwd = hs[0]
		if fwd == primaries[p] {
			fwd = hs[1]
		}
		key = PartitionKey(p, len(replicas))
		if _, err := f.Node(primaries[p]).PutQuorum(key, []byte("v0")); err != nil {
			t.Fatalf("seed put: %v", err)
		}
		return key, primaries[p], fwd, hs
	}
	t.Fatalf("no partition has %d holders: %v", n, replicas)
	return "", 0, 0, nil
}

// TestForwardingHolderTakesCopyFromReply: a resident holder that
// forwards a put is not synced — the primary sends one KindSync fewer
// than the holder count implies — yet the receipt lists it and its copy
// carries the receipt's version when PutQuorum returns. The reply hook
// sees the copy still missing, so the apply came from the reply.
func TestForwardingHolderTakesCopyFromReply(t *testing.T) {
	f, probes, syncs := probedFleet(t, 2)
	key, primary, fwd, holders := forwardingHolder(t, f, 3)

	syncs.Store(0)
	if _, err := f.Node(primary).PutQuorum(key, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if got, want := syncs.Load(), int64(len(holders)-1); got != want {
		t.Fatalf("put at the primary sent %d syncs, want %d for holders %v", got, want, holders)
	}

	syncs.Store(0)
	var before uint64
	probes[fwd].beforeReply = func() { _, before, _ = f.Node(fwd).LocalVersion(key) }
	rcpt, err := f.Node(fwd).PutQuorum(key, []byte("v2"))
	if err != nil {
		t.Fatal(err)
	}
	if !probes[fwd].offered || !probes[fwd].accepted {
		t.Fatalf("offered %v, accepted %v: want both", probes[fwd].offered, probes[fwd].accepted)
	}
	if got, want := syncs.Load(), int64(len(holders)-2); got != want {
		t.Fatalf("forwarded put sent %d syncs, want %d for holders %v", got, want, holders)
	}
	if !reflect.DeepEqual(rcpt.Acked, holders) {
		t.Fatalf("receipt lists %v, want every holder %v", rcpt.Acked, holders)
	}
	if before >= rcpt.Version {
		t.Fatalf("forwarder had version %d before the reply reached it, the write is %d", before, rcpt.Version)
	}
	if v, ver, _ := f.Node(fwd).LocalVersion(key); ver != rcpt.Version || string(v) != "v2" {
		t.Fatalf("forwarder holds (%q, %d), receipt version %d", v, ver, rcpt.Version)
	}
	if n := f.Node(fwd).SyncFails() + f.Node(primary).SyncFails(); n != 0 {
		t.Fatalf("%d sync failures on a clean fleet", n)
	}
}

// TestNonResidentForwarderIsSynced: a holder that lost residency makes
// no offer, so the primary syncs it, the StatusRetry heal ships it the
// partition, and the receipt lists every holder.
func TestNonResidentForwarderIsSynced(t *testing.T) {
	f, probes, syncs := probedFleet(t, 2)
	key, _, fwd, holders := forwardingHolder(t, f, 3)
	p := f.Node(fwd).PartitionOf(key)
	if _, err := f.Node(fwd).Handle(f.Addr(fwd), &transport.Message{Kind: KindDrop, Partition: uint32(p)}); err != nil {
		t.Fatal(err)
	}

	syncs.Store(0)
	rcpt, err := f.Node(fwd).PutQuorum(key, []byte("v1"))
	if err != nil {
		t.Fatal(err)
	}
	if probes[fwd].offered {
		t.Fatal("a non-resident holder offered its copy")
	}
	if got, want := syncs.Load(), int64(len(holders)-1); got != want {
		t.Fatalf("sent %d syncs, want %d for holders %v", got, want, holders)
	}
	if !reflect.DeepEqual(rcpt.Acked, holders) {
		t.Fatalf("receipt lists %v, want every holder %v", rcpt.Acked, holders)
	}
	if _, ver, _ := f.Node(fwd).LocalVersion(key); ver != rcpt.Version {
		t.Fatalf("forwarder holds version %d, receipt %d", ver, rcpt.Version)
	}
	if !f.Node(fwd).Dump().Partitions[p].Resident {
		t.Fatal("the heal did not make the forwarder resident again")
	}
}

// TestPrimaryRefusesUnlistedForwarder: when the primary's view does not
// list the offering holder, it neither accepts nor syncs it, and the
// forwarder applies nothing.
func TestPrimaryRefusesUnlistedForwarder(t *testing.T) {
	f, probes, syncs := probedFleet(t, 1)
	key, primary, fwd, holders := forwardingHolder(t, f, 3)
	_, seeded, _ := f.Node(fwd).LocalVersion(key)
	p := f.Node(fwd).PartitionOf(key)
	f.Node(primary).mu.Lock()
	err := f.Node(primary).view.cluster.RemoveReplica(p, cluster.ServerID(fwd))
	f.Node(primary).mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}

	syncs.Store(0)
	rcpt, err := f.Node(fwd).PutQuorum(key, []byte("v1"))
	if err != nil {
		t.Fatal(err)
	}
	if !probes[fwd].offered || probes[fwd].accepted {
		t.Fatalf("offered %v, accepted %v: want an offer the primary refused", probes[fwd].offered, probes[fwd].accepted)
	}
	if got, want := syncs.Load(), int64(len(holders)-2); got != want {
		t.Fatalf("sent %d syncs, want %d", got, want)
	}
	for _, h := range rcpt.Acked {
		if h == fwd {
			t.Fatalf("receipt %v lists the unlisted forwarder %d", rcpt.Acked, fwd)
		}
	}
	if _, ver, _ := f.Node(fwd).LocalVersion(key); ver != seeded {
		t.Fatalf("forwarder moved from version %d to %d without an acceptance", seeded, ver)
	}
}

// TestDelegatedApplyRefusedFailsQuorum: with W=2 and holders {primary,
// forwarder}, a drop that lands between the offer and the reply makes
// the forwarder refuse its own copy, so the put fails its quorum with a
// receipt naming only the primary, and the forwarder counts the miss.
func TestDelegatedApplyRefusedFailsQuorum(t *testing.T) {
	f, probes, _ := probedFleet(t, 2)
	key, primary, fwd, _ := forwardingHolder(t, f, 2)
	p := f.Node(fwd).PartitionOf(key)
	probes[fwd].beforeReply = func() {
		if _, err := f.Node(fwd).Handle(f.Addr(fwd), &transport.Message{Kind: KindDrop, Partition: uint32(p)}); err != nil {
			t.Error(err)
		}
	}
	fails := f.Node(fwd).SyncFails()
	rcpt, err := f.Node(fwd).PutQuorum(key, []byte("v1"))
	if err == nil || !strings.Contains(err.Error(), "write quorum not met") {
		t.Fatalf("put with the forwarder's copy dropped: err %v, want write quorum not met", err)
	}
	if !probes[fwd].accepted {
		t.Fatal("the primary did not accept the offer")
	}
	if want := []int{primary}; !reflect.DeepEqual(rcpt.Acked, want) {
		t.Fatalf("receipt lists %v, want %v", rcpt.Acked, want)
	}
	if got := f.Node(fwd).SyncFails() - fails; got != 1 {
		t.Fatalf("SyncFails went up by %d, want 1", got)
	}
}

// TestConcurrentPutsAckOnEveryHolder runs every node of a 4-node
// loopback cluster with Fanout 8 as an entry for the same keys at once
// — each key enters at its primary, at forwarding holders whose copy
// the primary leaves to them, and at non-holders — and checks that
// every holder a receipt names has that version or a newer one when the
// put returns. Run it under -race.
func TestConcurrentPutsAckOnEveryHolder(t *testing.T) {
	cfg := quorumConfig(2, 1)
	cfg.Fanout = 8
	h := newHarness(t, "loopback", 4, cfg)
	gen := h.zipf(cfg)
	for e := 0; e < 6; e++ {
		h.replay(gen.Epoch(e))
		h.tick()
	}
	keys := make([]string, cfg.Partitions)
	for p := range keys {
		keys[p] = PartitionKey(p, cfg.Partitions)
	}
	var wg sync.WaitGroup
	for i, nd := range h.nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 20; r++ {
				for _, key := range keys {
					rcpt, err := nd.PutQuorum(key, []byte(fmt.Sprintf("n%d-r%d", i, r)))
					if err != nil {
						t.Errorf("node %d put %s: %v", i, key, err)
						continue
					}
					for _, hIdx := range rcpt.Acked {
						if _, ver, ok := h.nodes[hIdx].LocalVersion(key); !ok || ver < rcpt.Version {
							t.Errorf("node %d put %s: receipt %v at version %d, holder %d has %d",
								i, key, rcpt.Acked, rcpt.Version, hIdx, ver)
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}
