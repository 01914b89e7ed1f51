package node

import (
	"encoding/binary"
	"fmt"

	"repro/internal/durable"
	"repro/internal/transport"
)

// RepairCost is one bytes-on-wire comparison row for rfhbench's repair
// suite: what the pre-delta protocol would have shipped against what
// the watermark/hierarchical protocol actually ships for the same
// divergence, both measured from the real encoders (and, for
// transfers, from real sessions on the wire).
type RepairCost struct {
	Name string `json:"name"`
	// Keys is the partition's record count, Divergent how many of them
	// the target/holder is missing or holds stale.
	Keys      int `json:"keys"`
	Divergent int `json:"divergent"`
	// BaselineBytes is the pre-delta cost (full snapshot transfer, or
	// flat 64-leaf digest + bucket diff), DeltaBytes the new protocol's.
	BaselineBytes int64 `json:"baseline_bytes"`
	DeltaBytes    int64 `json:"delta_bytes"`
	// Ratio is BaselineBytes / DeltaBytes — "how many times fewer bytes
	// move" for this divergence.
	Ratio float64 `json:"ratio"`
}

// repairEntries builds a deterministic keys-record partition image in
// the chaos workload's size class: short formatted keys, 64-byte
// values. Versions ascend from 1 so a re-migration watermark splits
// the set cleanly.
func repairEntries(keys int) []durable.Entry {
	entries := make([]durable.Entry, keys)
	for i := range entries {
		val := make([]byte, 64)
		copy(val, fmt.Sprintf("repair-bench.e%d.k%06d.", i, i))
		entries[i] = durable.Entry{
			Key: fmt.Sprintf("repair-k%06d", i),
			Ver: uint64(i + 1),
			Val: val,
		}
	}
	return entries
}

// repairFleet is a 3-node loopback fleet whose transport counts the
// encoded request bytes of every transfer-session frame — probe, offer,
// begin, chunk and done, exactly as sent. Replies are not counted on
// either side; chunk payloads dominate them all.
type repairFleet struct {
	*Fleet
	wireBytes int64
}

func newRepairFleet() (*repairFleet, error) {
	cfg := DefaultConfig(0, nil)
	cfg.Partitions = 8
	cfg.ReplicaCapacity = 8
	cfg.Seed = 7
	cfg.WriteQuorum = 1
	cfg.ReadQuorum = 1
	cfg.TransferLeaseEpochs = 1 << 20
	rf := &repairFleet{}
	wrap := func(i int, tr transport.Transport) transport.Transport {
		return transport.NewFault(tr, func(from, to string, m *transport.Message) transport.FaultAction {
			switch m.Kind {
			case KindXferBegin, KindXferChunk, KindXferCursor, KindXferDone, KindXferOffer:
				rf.wireBytes += int64(len(transport.AppendMessage(nil, m)))
			default: // only transfer-session frames count toward the comparison
			}
			return transport.FaultDeliver
		})
	}
	f, err := NewFleetWrapped(3, cfg, wrap)
	if err != nil {
		return nil, err
	}
	rf.Fleet = f
	return rf, nil
}

// ship runs one session of partition p from node 0 to node target —
// marking or not — to completion and returns the bytes it put on the
// wire.
func (rf *repairFleet) ship(p, target int, mark bool) (int64, error) {
	//lint:ignore rfhlint/closecheck Node borrows the fleet's slot; rf.Close owns shutdown
	src := rf.Node(0)
	src.mu.RLock()
	s := src.startTransferLocked(p, target, mark)
	src.mu.RUnlock()
	rf.wireBytes = 0
	if !src.pumpSession(s) {
		return 0, fmt.Errorf("transfer of partition %d to node %d did not complete", p, target)
	}
	return rf.wireBytes, nil
}

// fullShip seeds node 0's partition p with entries and prices a cold
// migration of it: the target holds nothing, so the plan is the whole
// snapshot — every row's baseline.
func (rf *repairFleet) fullShip(p, target int, entries []durable.Entry) (int64, error) {
	if err := rf.Node(0).store.Part(p).MergeSnapshot(entries); err != nil {
		return 0, err
	}
	rf.Node(target).store.Part(p).Drop()
	return rf.ship(p, target, true)
}

// freshEntries is n records newer than a keys-record repairEntries
// image: new keys when overwrite is false, the first n of its keys at
// higher versions otherwise.
func freshEntries(keys, n int, overwrite bool) []durable.Entry {
	fresh := make([]durable.Entry, n)
	for i := range fresh {
		val := make([]byte, 64)
		copy(val, fmt.Sprintf("repair-bench-fresh.%d.", i))
		key := fmt.Sprintf("repair-fresh-k%06d", i)
		if overwrite {
			key = fmt.Sprintf("repair-k%06d", i*(keys/n))
		}
		fresh[i] = durable.Entry{Key: key, Ver: uint64(keys + i + 1), Val: val}
	}
	return fresh
}

func repairCost(name string, keys, divergent int, full, delta int64) RepairCost {
	return RepairCost{
		Name:          fmt.Sprintf("%s-%dk-%d", name, keys/1000, divergent),
		Keys:          keys,
		Divergent:     divergent,
		BaselineBytes: full,
		DeltaBytes:    delta,
		Ratio:         float64(full) / float64(delta),
	}
}

// MeasureTransferRepair runs two real transfer sessions over
// loopback — a cold full migration, then a re-migration after
// `divergent` fresh writes — and reports the encoded request bytes
// each put on the wire (see repairFleet).
func MeasureTransferRepair(keys, divergent int) (RepairCost, error) {
	rf, err := newRepairFleet()
	if err != nil {
		return RepairCost{}, err
	}
	defer rf.Close()

	const p, target = 0, 1
	full, err := rf.fullShip(p, target, repairEntries(keys))
	if err != nil {
		return RepairCost{}, err
	}
	// Diverge by `divergent` fresh writes above the shipped watermark,
	// then re-migrate: the probe finds a target whose digest matches
	// below the watermark, so only the fresh entries ship.
	if err := rf.Node(0).store.Part(p).MergeSnapshot(freshEntries(keys, divergent, false)); err != nil {
		return RepairCost{}, err
	}
	delta, err := rf.ship(p, target, true)
	if err != nil {
		return RepairCost{}, err
	}
	if st := rf.Node(0).TransferStats(); st.DeltaSessions != 1 {
		return RepairCost{}, fmt.Errorf("re-migration did not plan a delta session (stats %+v)", st)
	}
	return repairCost("transfer-remigrate", keys, divergent, full, delta), nil
}

// MeasureRevokedRepair prices re-replication onto a copy a restarted
// node kept (non-resident) while `divergent` of its keys were
// overwritten elsewhere. Every bucket holding an overwritten key
// diverges below the copy's watermark, so the offer round — counted
// too — settles those buckets key by key, and only the overwritten
// entries ship. The baseline is the cold full migration a non-resident
// target used to get.
func MeasureRevokedRepair(keys, divergent int) (RepairCost, error) {
	rf, err := newRepairFleet()
	if err != nil {
		return RepairCost{}, err
	}
	defer rf.Close()

	const p, target = 0, 1
	full, err := rf.fullShip(p, target, repairEntries(keys))
	if err != nil {
		return RepairCost{}, err
	}
	if err := rf.Node(target).store.Part(p).Revoke(); err != nil {
		return RepairCost{}, err
	}
	if err := rf.Node(0).store.Part(p).MergeSnapshot(freshEntries(keys, divergent, true)); err != nil {
		return RepairCost{}, err
	}
	delta, err := rf.ship(p, target, true)
	if err != nil {
		return RepairCost{}, err
	}
	if !rf.Node(target).store.Part(p).Stats().Resident {
		return RepairCost{}, fmt.Errorf("revoked copy not resident after re-replication")
	}
	return repairCost("transfer-revoked", keys, divergent, full, delta), nil
}

// MeasureReinjectRepair prices rejoin re-injection from a source whose
// copy is `divergent` keys older than the holder's: every divergent
// bucket is settled by the offer round and no entry ships. The baseline
// is a full snapshot of the same partition.
func MeasureReinjectRepair(keys, divergent int) (RepairCost, error) {
	rf, err := newRepairFleet()
	if err != nil {
		return RepairCost{}, err
	}
	defer rf.Close()

	const p, target = 0, 1
	full, err := rf.fullShip(p, target, repairEntries(keys))
	if err != nil {
		return RepairCost{}, err
	}
	if err := rf.Node(target).store.Part(p).MergeSnapshot(freshEntries(keys, divergent, true)); err != nil {
		return RepairCost{}, err
	}
	chunks := rf.Node(0).TransferStats().ChunksSent
	delta, err := rf.ship(p, target, false)
	if err != nil {
		return RepairCost{}, err
	}
	if st := rf.Node(0).TransferStats(); st.ChunksSent != chunks {
		return RepairCost{}, fmt.Errorf("stale re-injection shipped %d chunks", st.ChunksSent-chunks)
	}
	return repairCost("transfer-reinject", keys, divergent, full, delta), nil
}

// MeasureAERepair prices one anti-entropy repair of `divergent` stale
// records on a keys-record partition, flat against hierarchical, from
// the real frame encoders:
//
//   - Flat (the pre-hierarchy protocol, encoders retained as the
//     baseline): the holder ships its 64-leaf digest, the primary
//     replies with a diff carrying EVERY record in the divergent
//     buckets — ~1/64th of the partition per stale key, values and
//     all.
//   - Hierarchical: the primary's piggybacked top digest (the same 64
//     leaves — detection costs both sides alike), the holder's
//     sub-leaf vectors for the divergent tops, the primary's per-key
//     (key, version) lists for the divergent sub-buckets, and a fetch
//     that moves only the stale records' values.
//
// Both sums start at divergence detection and end with every byte a
// repair needs on the wire, so the ratio is the protocols' whole cost
// gap, not a flattering slice of it.
func MeasureAERepair(keys, divergent int) RepairCost {
	entries := repairEntries(keys)
	primary := buildAETree(entries)

	// The holder's copy of the first `divergent` records is stale.
	holder := buildAETree(entries)
	stale := make([]durable.Entry, divergent)
	for i := range stale {
		old := entries[i]
		holder.Apply(old.Key, old.Ver, old.Val) // XOR-remove the current record
		stale[i] = durable.Entry{Key: old.Key, Ver: old.Ver, Val: []byte("stale-value")}
		holder.Apply(stale[i].Key, stale[i].Ver, stale[i].Val)
	}

	hLeaves, pLeaves := holder.Leaves(), primary.Leaves()
	var tops []int
	for i := range pLeaves {
		if hLeaves[i] != pLeaves[i] {
			tops = append(tops, i)
		}
	}

	// Flat: digest request + full-bucket diff reply.
	var flatDiff []durable.Entry
	for _, e := range entries {
		for _, b := range tops {
			if aeBucket(e.Key) == b {
				flatDiff = append(flatDiff, e)
				break
			}
		}
	}
	flat := int64(len(appendAEDigest(nil, hLeaves, holder.Root()))) +
		int64(len(appendAEDiff(nil, tops, flatDiff)))

	// Hierarchical: piggybacked top digest, sub-leaf vectors for the
	// divergent tops, keylists for the divergent sub-buckets, and a
	// fetch of exactly the stale keys.
	subs := make([][]uint64, len(tops))
	var subIdx []int
	var lists [][]aeKeyVer
	var fetch []string
	for i, b := range tops {
		subs[i] = holder.SubLeaves(b)
		pSubs := primary.SubLeaves(b)
		for j := range pSubs {
			if subs[i][j] == pSubs[j] {
				continue
			}
			sub := b*aeFanout + j
			subIdx = append(subIdx, sub)
			var list []aeKeyVer
			for _, e := range entries {
				if aeSub(e.Key) == sub {
					list = append(list, aeKeyVer{key: e.Key, ver: e.Ver})
				}
			}
			lists = append(lists, list)
		}
	}
	for _, s := range stale {
		fetch = append(fetch, s.Key)
	}
	fetched := entries[:divergent]
	hier := int64(len(appendAEDigest(nil, pLeaves, primary.Root()))) +
		int64(len(appendAESub(nil, tops, subs))) +
		int64(len(appendAEKeylists(nil, subIdx, lists))) +
		int64(len(appendAEKeys(nil, fetch))) +
		int64(len(appendEntries(nil, fetched)))

	return repairCost("ae-repair", keys, divergent, flat, hier)
}

// appendAEDiff encodes the flat (PR 9) digest-reply shape: the
// divergent bucket indexes, then the replier's entries for those
// buckets as a standard entry block. The live protocol no longer ships
// this frame; MeasureAERepair prices it as the flat baseline.
func appendAEDiff(dst []byte, buckets []int, entries []durable.Entry) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(buckets)))
	for _, b := range buckets {
		dst = binary.AppendUvarint(dst, uint64(b))
	}
	return appendEntries(dst, entries)
}
