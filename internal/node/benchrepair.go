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

// MeasureTransferRepair runs two real transfer sessions over
// loopback — a cold full migration, then a re-migration after
// `divergent` fresh writes — and reports the encoded request bytes
// each put on the wire. The fleet's transport is wrapped with a
// counting tap, so the numbers include every probe, begin, chunk and
// complete frame exactly as sent (replies are not counted on either
// side; chunk payloads dominate both).
func MeasureTransferRepair(keys, divergent int) (RepairCost, error) {
	cfg := DefaultConfig(0, nil)
	cfg.Partitions = 8
	cfg.ReplicaCapacity = 8
	cfg.Seed = 7
	cfg.WriteQuorum = 1
	cfg.ReadQuorum = 1
	cfg.TransferLeaseEpochs = 1 << 20

	var wireBytes int64
	wrap := func(i int, tr transport.Transport) transport.Transport {
		return transport.NewFault(tr, func(from, to string, m *transport.Message) transport.FaultAction {
			switch m.Kind {
			case KindXferBegin, KindXferChunk, KindXferCursor, KindXferDone:
				wireBytes += int64(len(transport.AppendMessage(nil, m)))
			default: // only transfer-session frames count toward the comparison
			}
			return transport.FaultDeliver
		})
	}
	f, err := NewFleetWrapped(3, cfg, wrap)
	if err != nil {
		return RepairCost{}, err
	}
	defer f.Close()

	const p, target = 0, 1
	//lint:ignore rfhlint/closecheck Node borrows the fleet's slot; f.Close owns shutdown
	src := f.Node(0)
	entries := repairEntries(keys)
	if err := src.store.Part(p).MergeSnapshot(entries); err != nil {
		return RepairCost{}, err
	}
	f.Node(target).store.Part(p).Drop()

	// Cold migration: the target is non-resident, the plan is full.
	wireBytes = 0
	if !src.TransferPartition(p, target) {
		return RepairCost{}, fmt.Errorf("full transfer of %d keys did not complete", keys)
	}
	full := wireBytes

	// Diverge by `divergent` fresh writes above the shipped watermark,
	// then re-migrate: the probe finds a resident target whose digest
	// matches below the watermark, so only the fresh entries ship.
	fresh := make([]durable.Entry, divergent)
	for i := range fresh {
		val := make([]byte, 64)
		copy(val, fmt.Sprintf("repair-bench-fresh.%d.", i))
		fresh[i] = durable.Entry{
			Key: fmt.Sprintf("repair-fresh-k%06d", i),
			Ver: uint64(keys + i + 1),
			Val: val,
		}
	}
	if err := src.store.Part(p).MergeSnapshot(fresh); err != nil {
		return RepairCost{}, err
	}
	wireBytes = 0
	if !src.TransferPartition(p, target) {
		return RepairCost{}, fmt.Errorf("delta re-transfer did not complete")
	}
	delta := wireBytes
	st := src.TransferStats()
	if st.DeltaSessions != 1 {
		return RepairCost{}, fmt.Errorf("re-migration did not plan a delta session (stats %+v)", st)
	}

	return RepairCost{
		Name:          fmt.Sprintf("transfer-remigrate-%dk-%d", keys/1000, divergent),
		Keys:          keys,
		Divergent:     divergent,
		BaselineBytes: full,
		DeltaBytes:    delta,
		Ratio:         float64(full) / float64(delta),
	}, nil
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

	return RepairCost{
		Name:          fmt.Sprintf("ae-repair-%dk-%d", keys/1000, divergent),
		Keys:          keys,
		Divergent:     divergent,
		BaselineBytes: flat,
		DeltaBytes:    hier,
		Ratio:         float64(flat) / float64(hier),
	}
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
