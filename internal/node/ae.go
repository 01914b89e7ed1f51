package node

import (
	"cmp"
	"slices"

	"repro/internal/durable"
)

// Anti-entropy: periodic background reconciliation of a partition's
// holders, healing divergence without waiting for a quorum read to
// touch the stale key (Leslie, "Reliable Data Storage in DHTs").
//
// Every AEInterval-th epoch each resident holder of a co-held partition
// piggybacks its digest root (8 bytes) on the KindStats broadcast it
// already sends. In RunEpoch a node compares every root a peer
// published with its own: where the partition's primary and a holder
// disagree, each of the two opens a transfer session toward the other
// that does not mark the target resident, and the same epoch's pump
// runs it. An AE session is an ordinary one — its probe, offer round
// and version-gated merge ship exactly what the target lacks — so the
// primary's session heals the holder and the holder's carries back
// what only it has. A merge never rolls a key back, so a round is
// idempotent and safe to replay, duplicate or delay arbitrarily, which
// is what the chaos fault plane does to it. While the cluster is in
// sync anti-entropy costs 8 bytes per partition on the stats broadcast
// and no frame of its own.

// The digest lives beside the partition state it covers (durable.AETree,
// maintained by the state machine's one apply path); transfer planning
// uses these names for its shape.
const aeTop = durable.AETop

// aeBucket maps a key to its digest bucket.
func aeBucket(key string) int { return durable.AEBucket(key) }

// AETree is one partition's anti-entropy digest. Exported (with
// NewAETree/Apply/Root) so the benchmark ledger can hold the digest
// cost on a committed leash.
type AETree = durable.AETree

// NewAETree returns an empty tree (the digest of an empty partition).
func NewAETree() *AETree { return &AETree{} }

// AEStats counts anti-entropy activity for DumpInfo and tests. Every
// counter but Rounds and Synced is booked by a session's source.
type AEStats struct {
	// Rounds is how many roots this node published (one per co-held
	// resident partition per AEInterval boundary).
	Rounds int64 `json:"rounds"`
	// Synced counts published peer roots that matched this node's own.
	Synced int64 `json:"synced"`
	// Sessions counts the AE sessions this node opened on a mismatch.
	Sessions int64 `json:"sessions"`
	// Repairs counts the entries AE sessions delivered from this node,
	// booked when the target acknowledged them.
	Repairs int64 `json:"repairs"`
	// PayloadBytes sums the bytes AE sessions put on the wire: their
	// chunks' entry blocks and their offer rounds in both directions.
	// They are not in TransferStats.BytesSent.
	PayloadBytes int64 `json:"payload_bytes"`
}

// AEStats returns the node's anti-entropy counters.
func (n *Node) AEStats() AEStats {
	return AEStats{
		Rounds:       n.aeRoundsN.Load(),
		Synced:       n.aeSyncedN.Load(),
		Sessions:     n.aeSessionsN.Load(),
		Repairs:      n.aeRepairsN.Load(),
		PayloadBytes: n.aePayloadN.Load(),
	}
}

// aeRootsLocked builds, under n.mu, the roots this node piggybacks on
// its stats broadcast: every AEInterval-th epoch, one per partition it
// holds with resident data and at least one co-holder, in ascending
// partition order. A recovering node publishes nothing — its view is
// not yet trustworthy.
func (n *Node) aeRootsLocked() []aeRoot {
	iv := n.cfg.AEInterval
	if iv <= 0 || n.recovering || n.epoch%uint64(iv) != 0 {
		return nil
	}
	var roots []aeRoot
	for p := 0; p < n.cfg.Partitions; p++ {
		if !n.view.hasReplica(p, n.self) || len(n.view.cluster.ReplicaServers(p)) < 2 {
			continue
		}
		// The store maintains the digest incrementally, so publishing
		// costs O(1) per partition — no rehash on the epoch path.
		if resident, root := n.store.Part(p).Root(); resident {
			roots = append(roots, aeRoot{partition: p, root: root})
			n.aeRoundsN.Add(1)
		}
	}
	return roots
}

// aeSessionsLocked compares, under n.mu, the roots peers published this
// epoch with this node's own and opens an AE session toward every peer
// that disagrees, where one of the two is the partition's primary in
// this node's view and both hold it. Blobs are scanned in roster order
// and roots arrive in ascending partition order, so the session order
// is deterministic (the chaos fault plane's RNG draw order depends on
// it). A node that published no roots compares nothing.
func (n *Node) aeSessionsLocked() {
	mine := n.pending[n.self].roots
	if len(mine) == 0 {
		return
	}
	for i, blob := range n.pending {
		if blob == nil || i == n.self {
			continue
		}
		for _, r := range blob.roots {
			p := r.partition
			j, ok := slices.BinarySearchFunc(mine, p, func(e aeRoot, q int) int { return cmp.Compare(e.partition, q) })
			if pr := n.view.primary(p); !ok || (pr != n.self && pr != i) ||
				!n.view.hasReplica(p, i) || !n.view.hasReplica(p, n.self) {
				continue
			}
			if mine[j].root == r.root {
				n.aeSyncedN.Add(1)
				continue
			}
			n.startAESessionLocked(p, i)
		}
	}
}

// startAESessionLocked opens an AE session of partition p toward
// target, unless the pair already has a live session: a marking one
// ships at least as much, and a non-marking one is this session.
// Callers hold n.mu.
func (n *Node) startAESessionLocked(p, target int) {
	n.xmu.Lock()
	defer n.xmu.Unlock()
	if n.liveSessionXLocked(p, target, false, true) == nil {
		n.openSessionXLocked(p, target, false).ae = true
		n.aeSessionsN.Add(1)
	}
}
