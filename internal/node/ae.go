package node

import (
	"sort"

	"repro/internal/durable"
	"repro/internal/transport"
)

// Anti-entropy: periodic Merkle-digest exchange between a partition's
// holders, repairing divergence without waiting for a quorum read to
// touch the stale key (Leslie, "Reliable Data Storage in DHTs").
//
// The digest is a two-level tree: aeSubCount (64×64) sub-buckets, each
// an XOR of its entries' record hashes, folded into aeTop top-level
// buckets. Every AEInterval-th epoch each resident partition primary
// piggybacks its top digest (64 leaves + root) on the KindStats
// broadcast it already sends — anti-entropy costs zero dedicated frames
// while the cluster is in sync. A co-holder whose tree disagrees pulls:
// it sends the divergent top buckets with its own sub-leaf vectors
// (KindAEDigest), gets back the primary's (key, version) lists for the
// divergent sub-buckets, then fetches exactly the keys it is missing or
// has stale (KindAEFetch) and pushes back any keys the primary lacks
// (KindAERepair). Values only ever move for keys proven divergent, so a
// one-key divergence on a large partition repairs with one key.
// Both directions merge version-gated through the store, so a repair
// can never roll a key back — the exchange is idempotent and safe to
// replay, duplicate or delay arbitrarily, which is what the chaos
// fault plane does to it.

// The tree itself lives beside the partition state it digests
// (durable.AETree, maintained by the state machine's one apply path);
// the pull walk and the wire codecs use these names for its shape.
const (
	aeTop      = durable.AETop
	aeFanout   = durable.AEFanout
	aeSubCount = aeTop * aeFanout
)

// aeSub and aeBucket map a key to its sub-bucket and top-level bucket.
func aeSub(key string) int    { return durable.AESub(key) }
func aeBucket(key string) int { return durable.AEBucket(key) }

// AETree is one partition's anti-entropy digest. Exported (with
// NewAETree/Apply/Root) so the benchmark ledger can hold the digest
// cost on a committed leash.
type AETree = durable.AETree

// NewAETree returns an empty tree (the digest of an empty partition).
func NewAETree() *AETree { return &AETree{} }

// buildAETree digests an entry block (the canonical snapshotEntries
// form). Order-independent by construction, so the sorted input is a
// convenience, not a requirement.
func buildAETree(entries []durable.Entry) *AETree {
	t := NewAETree()
	for _, e := range entries {
		t.Apply(e.Key, e.Ver, e.Val)
	}
	return t
}

// AEStats counts anti-entropy activity for DumpInfo and tests.
type AEStats struct {
	// Rounds is how many top digests this node published as primary
	// (one per partition per AEInterval boundary, piggybacked on the
	// stats broadcast).
	Rounds int64 `json:"rounds"`
	// Synced counts digest comparisons that found this holder identical
	// to the primary.
	Synced int64 `json:"synced"`
	// Repairs counts value-bearing repair payloads this node shipped:
	// fetch replies served as primary plus backflow pushes as holder
	// that the primary accepted.
	Repairs int64 `json:"repairs"`
	// Healed counts entries merged INTO this node by anti-entropy —
	// holder-side fetches plus primary-side backflow from holders.
	Healed int64 `json:"healed"`
	// PayloadBytes sums the AE payload bytes this node put on the wire:
	// sub-digest requests, keylist replies, fetch requests and replies,
	// and backflow pushes, each counted at its sender.
	PayloadBytes int64 `json:"payload_bytes"`
}

// AEStats returns the node's anti-entropy counters.
func (n *Node) AEStats() AEStats {
	return AEStats{
		Rounds:       n.aeRoundsN.Load(),
		Synced:       n.aeSyncedN.Load(),
		Repairs:      n.aeRepairsN.Load(),
		Healed:       n.aeHealedN.Load(),
		PayloadBytes: n.aePayloadN.Load(),
	}
}

// aeDigestsLocked builds, under n.mu, the top digests this node
// piggybacks on its stats broadcast: every AEInterval-th epoch, one per
// partition this node primaries with resident local data and at least
// one co-holder. A recovering node publishes nothing — its view is not
// yet trustworthy.
func (n *Node) aeDigestsLocked() []aePartitionDigest {
	iv := n.cfg.AEInterval
	if iv <= 0 || n.recovering || n.epoch%uint64(iv) != 0 {
		return nil
	}
	var digests []aePartitionDigest
	for p := 0; p < n.cfg.Partitions; p++ {
		if n.view.primary(p) != n.self {
			continue
		}
		coheld := false
		for _, s := range n.view.cluster.ReplicaServers(p) {
			if int(s) != n.self {
				coheld = true
				break
			}
		}
		if !coheld {
			continue
		}
		// The store maintains the digest incrementally, so publishing
		// costs O(1) per partition — no rehash on the epoch path.
		resident, leaves, root := n.store.Part(p).Digest()
		if !resident {
			continue
		}
		digests = append(digests, aePartitionDigest{partition: p, root: root, leaves: leaves})
		n.aeRoundsN.Add(1)
	}
	return digests
}

// aePull is one holder-side reconciliation planned from a piggybacked
// digest: the partition (and this node's copy of it, taken under n.mu
// at planning), the primary that published it, and the published top
// digest to compare against.
type aePull struct {
	p       int
	part    *durable.Partition
	primary int
	epoch   uint64
	root    uint64
	leaves  []uint64
}

// aePullPlansLocked scans, under n.mu, the epoch's folded stats blobs
// for piggybacked digests this node should reconcile against: the
// sender must be the partition's primary in this node's own view, and
// this node must be a resident co-holder. A recovering node plans
// nothing. Blobs are scanned in roster order and digests arrive in
// ascending partition order, so the pull sequence is deterministic (the
// chaos fault plane's RNG draw order depends on it).
func (n *Node) aePullPlansLocked() []aePull {
	if n.cfg.AEInterval <= 0 || n.recovering {
		return nil
	}
	var pulls []aePull
	for i, blob := range n.pending {
		if blob == nil || i == n.self {
			continue
		}
		for _, d := range blob.digests {
			p := d.partition
			part := n.store.Part(p)
			if n.view.primary(p) != i || !n.view.hasReplica(p, n.self) || !part.Stats().Resident {
				continue
			}
			pulls = append(pulls, aePull{p: p, part: part, primary: i, epoch: n.epoch, root: d.root, leaves: d.leaves})
		}
	}
	return pulls
}

// runAEPulls executes the planned reconciliations. Every failure mode
// is soft: a dropped frame, a refusing primary or a malformed payload
// just leaves the divergence for the next round (or for read-repair or
// replica shipping to catch first).
//
//lint:requires-unlocked n.mu
func (n *Node) runAEPulls(pulls []aePull) {
	for _, pl := range pulls {
		resident, mine, root := pl.part.Digest()
		if !resident {
			continue // residency was lost between planning and here
		}
		if len(pl.leaves) == aeTop && root == pl.root {
			n.aeSyncedN.Add(1)
			continue
		}
		// Divergent top buckets. A malformed leaf count marks every
		// bucket divergent — the sub round then re-establishes truth.
		var tops []int
		for b := 0; b < aeTop; b++ {
			if b >= len(pl.leaves) || pl.leaves[b] != mine[b] {
				tops = append(tops, b)
			}
		}
		if len(tops) == 0 {
			// Leaves agree but the root does not (or the vector was
			// oversized): treat the whole tree as divergent.
			for b := 0; b < aeTop; b++ {
				tops = append(tops, b)
			}
		}
		subs := pl.part.SubLeaves(tops)
		req := appendAESub(nil, tops, subs)
		n.aePayloadN.Add(int64(len(req)))
		resp, err := n.tr.Send(n.peerAddr(pl.primary), &transport.Message{
			Kind:      KindAEDigest,
			Partition: uint32(pl.p),
			Epoch:     pl.epoch,
			Origin:    uint32(n.self),
			Value:     req,
		})
		if err != nil || resp.Status != transport.StatusOK {
			continue
		}
		subIdx, lists, err := decodeAEKeylists(resp.Value)
		if err != nil {
			continue
		}
		// Index the local copy of the listed sub-buckets. entries is in
		// ascending key order, so per-bucket key order is deterministic.
		entries, _ := pl.part.Entries()
		listed := make(map[int]bool, len(subIdx))
		for _, s := range subIdx {
			listed[s] = true
		}
		localVer := make(map[string]uint64)
		localBySub := make(map[int][]durable.Entry)
		for _, e := range entries {
			if s := aeSub(e.Key); listed[s] {
				localVer[e.Key] = e.Ver
				localBySub[s] = append(localBySub[s], e)
			}
		}
		// Fetch what the primary proved newer or unknown here; push back
		// what this holder has that the primary lacks or has stale.
		primVer := make(map[string]uint64)
		var fetch []string
		for _, list := range lists {
			for _, kv := range list {
				primVer[kv.key] = kv.ver
				if lv, ok := localVer[kv.key]; !ok || lv < kv.ver {
					fetch = append(fetch, kv.key)
				}
			}
		}
		var push []durable.Entry
		for _, s := range subIdx {
			for _, e := range localBySub[s] {
				if pv, ok := primVer[e.Key]; !ok || pv < e.Ver {
					push = append(push, e)
				}
			}
		}
		if len(fetch) > 0 {
			freq := appendAEKeys(nil, fetch)
			n.aePayloadN.Add(int64(len(freq)))
			resp, err := n.tr.Send(n.peerAddr(pl.primary), &transport.Message{
				Kind:      KindAEFetch,
				Partition: uint32(pl.p),
				Epoch:     pl.epoch,
				Origin:    uint32(n.self),
				Value:     freq,
			})
			if err == nil && resp.Status == transport.StatusOK {
				if got, derr := decodeEntries(resp.Value); derr == nil {
					if merged, applied, merr := pl.part.MergeResident(got); merr == nil && applied && merged > 0 {
						n.aeHealedN.Add(int64(merged))
					}
				}
			}
		}
		if len(push) > 0 {
			buf := appendEntries(nil, push)
			n.aePayloadN.Add(int64(len(buf)))
			resp, err := n.tr.Send(n.peerAddr(pl.primary), &transport.Message{
				Kind:      KindAERepair,
				Partition: uint32(pl.p),
				Epoch:     pl.epoch,
				Origin:    uint32(n.self),
				Value:     buf,
			})
			if err == nil && resp.Status == transport.StatusOK {
				n.aeRepairsN.Add(1) // a lost or refused push stays divergent until the next round
			}
		}
	}
}

// handleAEDigest answers a holder's sub-digest request with this
// primary's keylists: a non-resident or non-holder receiver refuses
// (its tree would compare garbage); otherwise the reply lists, for
// every divergent sub-bucket of the requested top buckets, this node's
// (key, version) pairs — including empty lists for sub-buckets where
// the holder has data this node lacks entirely.
func (n *Node) handleAEDigest(req *transport.Message) (*transport.Message, error) {
	p, err := n.checkPartition(req.Partition)
	if err != nil {
		return nil, err
	}
	tops, theirSubs, err := decodeAESub(req.Value)
	if err != nil {
		return nil, err
	}
	n.mu.RLock()
	holder := n.view.hasReplica(p, n.self) && !n.recovering
	part := n.store.Part(p)
	n.mu.RUnlock()
	if !holder || !part.Stats().Resident {
		return &transport.Message{Kind: KindAEDigest, Partition: req.Partition, Status: transport.StatusRetry}, nil
	}
	mineSubs := part.SubLeaves(tops)
	divergent := make(map[int]bool)
	for i, b := range tops {
		for j := 0; j < aeFanout; j++ {
			if s := b*aeFanout + j; mineSubs[i][j] != theirSubs[i][j] {
				divergent[s] = true
			}
		}
	}
	subIdx := make([]int, 0, len(divergent))
	for s := range divergent {
		subIdx = append(subIdx, s)
	}
	sort.Ints(subIdx)
	bySub := make(map[int][]aeKeyVer)
	if len(divergent) > 0 {
		entries, _ := part.Entries()
		for _, e := range entries {
			if s := aeSub(e.Key); divergent[s] {
				bySub[s] = append(bySub[s], aeKeyVer{key: e.Key, ver: e.Ver})
			}
		}
	}
	lists := make([][]aeKeyVer, len(subIdx))
	for i, s := range subIdx {
		lists[i] = bySub[s]
	}
	reply := appendAEKeylists(nil, subIdx, lists)
	n.aePayloadN.Add(int64(len(reply)))
	return &transport.Message{Kind: KindAEDigest, Partition: req.Partition, Value: reply}, nil
}

// handleAEFetch serves the values for the keys a holder proved stale or
// missing. Keys the primary no longer has are simply absent from the
// reply (the next digest round settles them); a non-resident receiver
// refuses.
func (n *Node) handleAEFetch(req *transport.Message) (*transport.Message, error) {
	p, err := n.checkPartition(req.Partition)
	if err != nil {
		return nil, err
	}
	keys, err := decodeAEKeys(req.Value)
	if err != nil {
		return nil, err
	}
	n.mu.RLock()
	holder := n.view.hasReplica(p, n.self) && !n.recovering
	part := n.store.Part(p)
	n.mu.RUnlock()
	if !holder || !part.Stats().Resident {
		return &transport.Message{Kind: KindAEFetch, Partition: req.Partition, Status: transport.StatusRetry}, nil
	}
	found := part.Lookup(keys)
	reply := appendEntries(nil, found)
	if len(found) > 0 {
		n.aeRepairsN.Add(1)
	}
	n.aePayloadN.Add(int64(len(reply)))
	return &transport.Message{Kind: KindAEFetch, Partition: req.Partition, Value: reply}, nil
}

// handleAERepair folds a holder's backflow payload in, version-gated
// and only into an already-resident copy — residency is a transfer
// protocol decision, never an anti-entropy side effect.
func (n *Node) handleAERepair(req *transport.Message) (*transport.Message, error) {
	p, err := n.checkPartition(req.Partition)
	if err != nil {
		return nil, err
	}
	entries, err := decodeEntries(req.Value)
	if err != nil {
		return nil, err
	}
	n.mu.RLock()
	holder := n.view.hasReplica(p, n.self) && !n.recovering
	var merged int
	applied := false
	if holder {
		merged, applied, err = n.store.Part(p).MergeResident(entries)
	}
	n.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	if !applied {
		return &transport.Message{Kind: KindAERepair, Partition: req.Partition, Status: transport.StatusRetry}, nil
	}
	if merged > 0 {
		n.aeHealedN.Add(int64(merged))
	}
	return &transport.Message{Kind: KindAERepair, Partition: req.Partition}, nil
}
