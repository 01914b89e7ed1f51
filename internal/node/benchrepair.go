package node

import (
	"fmt"

	"repro/internal/durable"
	"repro/internal/transport"
)

// RepairCost is one bytes-on-wire comparison row for rfhbench's repair
// suite: what a full snapshot ships against what planned sessions
// actually ship for the same divergence, both measured from real
// sessions on the wire.
type RepairCost struct {
	Name string `json:"name"`
	// Keys is the partition's record count, Divergent how many of them
	// the target/holder is missing or holds stale.
	Keys      int `json:"keys"`
	Divergent int `json:"divergent"`
	// BaselineBytes is a full snapshot transfer's cost, DeltaBytes the
	// planned sessions'.
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
	src := rf.Node(0)
	src.mu.RLock()
	s := src.startTransferLocked(p, target, mark)
	src.mu.RUnlock()
	return rf.pump(src, s)
}

// aeShip runs the anti-entropy session of partition p from node src to
// node target to completion and returns the bytes it put on the wire.
func (rf *repairFleet) aeShip(src, p, target int) (int64, error) {
	nd := rf.Node(src)
	nd.mu.RLock()
	nd.startAESessionLocked(p, target)
	nd.mu.RUnlock()
	nd.xmu.Lock()
	s := nd.liveSessionXLocked(p, target, false, false)
	nd.xmu.Unlock()
	return rf.pump(nd, s)
}

// pump drives session s of node src to completion and returns the bytes
// it put on the wire.
func (rf *repairFleet) pump(src *Node, s *xferSession) (int64, error) {
	rf.wireBytes = 0
	if !src.pumpSession(s) {
		return 0, fmt.Errorf("transfer of partition %d to node %d did not complete", s.p, s.target)
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

// MeasureAERepair prices one anti-entropy round on a keys-record
// partition whose holder is `divergent` records stale: the primary
// overwrites that many of its keys at newer versions, and both AE
// sessions of the round — primary to holder, which ships the new
// versions, and holder to primary, which ships nothing — run over the
// tapped loopback wire. Every frame of both counts, offer rounds
// included. The baseline is the full snapshot, as in the transfer
// rows. The fleet is in-process and deterministic, so a session that
// fails to complete is a bug in the protocol and panics.
func MeasureAERepair(keys, divergent int) RepairCost {
	rf, err := newRepairFleet()
	if err != nil {
		panic(err)
	}
	defer rf.Close()

	const p, holder = 0, 1
	full, err := rf.fullShip(p, holder, repairEntries(keys))
	if err == nil {
		err = rf.Node(0).store.Part(p).MergeSnapshot(freshEntries(keys, divergent, true))
	}
	var heal, backflow int64
	if err == nil {
		heal, err = rf.aeShip(0, p, holder)
	}
	if err == nil {
		backflow, err = rf.aeShip(holder, p, 0)
	}
	if err != nil {
		panic(err)
	}
	if st := rf.Node(0).AEStats(); st.Repairs != int64(divergent) {
		panic(fmt.Sprintf("AE round delivered %d entries for %d stale", st.Repairs, divergent))
	}
	return repairCost("ae-repair", keys, divergent, full, heal+backflow)
}
