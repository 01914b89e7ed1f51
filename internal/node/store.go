package node

import (
	"sync"

	"repro/internal/durable"
)

// versionEpochShift positions the current epoch in a fresh version's
// high bits: StampPut issues max(maxVer, epoch<<versionEpochShift)+1.
// The epoch term keeps versions monotone across primary failover — a
// successor is only promoted after at least one full suspicion epoch,
// so its first stamp (at a strictly later epoch) exceeds anything the
// dead primary issued, even stamps the successor never saw — while the
// max(maxVer, ·) term keeps them monotone within an epoch. The shift
// bounds writes at 2^20 per partition per epoch before the counter
// could spill into the next epoch's range; at the paper's traffic
// scales that is orders of magnitude of headroom.
const versionEpochShift = 20

// store is the node's data plane: the partition state machines (one
// durable.Partition per partition — data, versions, residency, transfer
// sessions and AE digest all live there, in memory mode and on disk
// alike) plus the paper's per-partition traffic counters for the epoch
// in flight, which are the node's own business and never logged.
//
// Lock hierarchy: a counter lock or a partition lock may be taken while
// holding Node.mu (either mode), never the reverse, and the two are
// never nested in each other.
type store struct {
	*durable.Engine
	counters []counterShard
}

type counterShard struct {
	mu sync.Mutex
	c  partitionCounters
}

// openStore opens the node's partition state machines over dir ("" is
// memory mode: the same machines with no log). rejoin is the restart
// case: the cluster moved on while this node was dead, so every
// partition comes back non-resident — recovered content must not be
// served as authoritative — but KEEPS its data, so the rejoin path can
// push it back to the current holders; the revocation is a logged step
// like any other. A memory-mode rejoin is simply a blank store that is
// resident nowhere until snapshots rebuild it. Without rejoin (first
// boot) recovered residency is trusted: a fresh directory is the
// authoritative-empty birth state, a reused one is whatever this node
// durably was when it last ran.
func openStore(cfg *Config, dir string, rejoin bool) (*store, error) {
	sync := durable.Syncer(durable.NoSync{})
	if cfg.Fsync {
		sync = durable.OSSync{}
	}
	eng, err := durable.Open(durable.Options{
		Dir:          dir,
		Partitions:   cfg.Partitions,
		Sync:         sync,
		CompactEvery: cfg.WALCompactEvery,
	})
	if err != nil {
		return nil, err
	}
	s := &store{Engine: eng, counters: make([]counterShard, cfg.Partitions)}
	for p := range s.counters {
		s.counters[p].c.partition = p
		if rejoin {
			if err := eng.Part(p).Revoke(); err != nil {
				_ = eng.Close() // the revoke error is the one worth reporting
				return nil, err
			}
		}
	}
	return s, nil
}

// arriveAndTryServe is the read path's single visit to partition p:
// it records the arrival (entry vs transit) and, when this node may
// serve the key under the paper's capacity accounting, answers from the
// partition — the capacity check and the served/overflow bump are
// atomic under the counter lock. served reports whether the query was
// handled here; when false the caller must forward it (not a holder,
// not resident, or over capacity and not the primary).
func (s *store) arriveAndTryServe(p int, key string, entered bool, capacity int, isPrimary, hasReplica bool) (v []byte, ver uint64, ok, served bool) {
	v, ver, ok, resident := s.Part(p).Get(key)
	cs := &s.counters[p]
	cs.mu.Lock()
	defer cs.mu.Unlock()
	c := &cs.c
	if entered {
		c.origin++
	} else {
		c.transit++
	}
	if !hasReplica || !(resident || isPrimary) {
		return nil, 0, false, false
	}
	underCap := c.served < capacity
	if !underCap && !isPrimary {
		return nil, 0, false, false
	}
	c.served++
	if !underCap {
		c.overflow++
	}
	return v, ver, ok, true
}

// flushCounters snapshots every partition's non-zero counters and
// resets them, so each query is reported in exactly one epoch: queries
// arriving after the flush count toward the next one.
func (s *store) flushCounters() []partitionCounters {
	var out []partitionCounters
	for p := range s.counters {
		cs := &s.counters[p]
		cs.mu.Lock()
		c := cs.c
		cs.c = partitionCounters{partition: p}
		cs.mu.Unlock()
		if c.origin|c.transit|c.served|c.overflow != 0 {
			out = append(out, c)
		}
	}
	return out
}
