package node

import (
	"fmt"
	"sort"

	"repro/internal/availability"
	"repro/internal/traffic"
)

// Peer is one member of the static cluster roster: a node id and the
// transport address it answers on. Every node runs with the same
// roster, and a peer's datacenter index is its position in the roster
// sorted by id — which is what lets every node derive an identical
// world view from configuration alone.
type Peer struct {
	ID   int
	Addr string
}

// Config describes one live node. All nodes of a cluster must share
// every field except ID (and the address book entries naturally
// differ per deployment): the world topology, ring, and policy
// thresholds are derived deterministically from the shared fields, so
// identical configs give every node the same view of the cluster.
type Config struct {
	// ID is this node's id; it must appear in Peers.
	ID int
	// Peers is the full static roster, self included. At least three
	// nodes (the minimum synthetic world).
	Peers []Peer

	// Partitions is the number of data partitions (default 64).
	Partitions int
	// TokensPerServer is the virtual nodes each peer projects onto the
	// consistent-hashing ring (default 8).
	TokensPerServer int
	// ReplicaCapacity is the queries one replica serves per epoch
	// before counting overflow (default 100). The live node never
	// refuses a request — capacity is the accounting signal behind
	// eq. (12), not an admission limit.
	ReplicaCapacity int
	// PartitionSize is the nominal bytes charged against replication
	// and migration bandwidth per transfer (default 512 KB).
	PartitionSize int64
	// ReplicationBW and MigrationBW are the per-epoch send budgets in
	// bytes (defaults 300 MB and 100 MB, Table I).
	ReplicationBW int64
	MigrationBW   int64

	// Thresholds are the α/β/γ/δ/μ decision constants (Table I).
	Thresholds traffic.Thresholds
	// FailureRate and MinAvailability parameterise the eq. (14)
	// availability lower limit (defaults 0.1 and 0.8).
	FailureRate     float64
	MinAvailability float64
	// HubCandidates is the traffic-hub candidate set size (default 3).
	HubCandidates int
	// PolicyName selects the replication algorithm by its
	// core.PolicyNames name; "rfh" is the default.
	PolicyName string

	// WriteQuorum is W: how many holders (primary included) must
	// durably accept a Put before it is acked. 0 normalises to 1 —
	// primary-only acks, the pre-quorum behaviour. Values above 1 make
	// acked writes survive the crash of any W-1 holders, at the price of
	// refusing writes while fewer than W holders are reachable. Bounded
	// above by the eq. (14) MinReplicas floor, the replica count the
	// policy is obliged to maintain.
	WriteQuorum int
	// ReadQuorum is R: how many holders a Get consults before answering
	// with the highest version observed. 0 normalises to 1 (serve
	// locally, no fan-out). With W+R > MinReplicas a read quorum always
	// intersects the latest write quorum. Same upper bound as
	// WriteQuorum.
	ReadQuorum int

	// DataDir, when non-empty, backs the node's store with the durable
	// engine (internal/durable): every applied write lands in a
	// per-partition WAL before it is acked, and a restart in the same
	// directory recovers the data instead of rejoining blank. Empty
	// keeps the pure in-memory store.
	DataDir string
	// Fsync selects the durable engine's sync discipline: true (the
	// DefaultConfig setting) fsyncs the WAL on every append; false skips
	// the physical sync — the mode deterministic simulations use, where
	// "durability" means surviving a process-level Crash/Restart, not a
	// power cut. Ignored without DataDir.
	Fsync bool
	// WALCompactEvery is how many WAL records a partition accumulates
	// before its log folds into a snapshot (default 1024).
	WALCompactEvery int

	// TransferChunkEntries bounds the entries one transfer chunk carries
	// (default 256); chunks also cap at a fixed byte size. A partition
	// that fits one chunk ships in a single begin message.
	TransferChunkEntries int
	// TransferLeaseEpochs is how many epochs an outbound transfer
	// session may go without progress before the source abandons it and
	// releases its compaction hold (default 4).
	TransferLeaseEpochs int

	// AEInterval is the anti-entropy cadence in epochs: on every
	// AEInterval-th epoch each resident holder of a co-held partition
	// publishes its digest root on the stats broadcast, and where the
	// primary's and a holder's roots differ each opens a non-marking
	// transfer session toward the other, which ships only what its
	// target lacks. Holder drift thus heals without waiting for a quorum
	// read to touch the key. 0 (the default) disables background
	// anti-entropy — read-repair and replica shipping stay the only
	// healing paths, which is also what the byte-identical memory-mode
	// chaos trajectories require.
	AEInterval int

	// SuspectAfter is how many epochs a peer may stay silent before it
	// is presumed failed and removed from the view (default 3).
	SuspectAfter int
	// Fanout bounds how many peers the node contacts concurrently when
	// a single logical step sends to several (the per-epoch stats
	// broadcast, replica-sync on a primary write, the decision's data
	// movements). Values <= 1 send strictly sequentially in roster
	// order — the mode the deterministic loopback harnesses require,
	// because the chaos fault wrapper draws from a shared RNG per send
	// and its draw order is part of the seed's byte-identical
	// trajectory. Fleet forces 1; live deployments default to 8.
	Fanout int
	// Seed drives every stochastic choice: the synthetic world, the
	// ring positions, and the per-epoch policy RNG streams. All nodes
	// must share it.
	Seed uint64
}

// DefaultConfig returns a config for node id over the given roster,
// with Table I-shaped defaults.
func DefaultConfig(id int, peers []Peer) Config {
	return Config{
		ID:              id,
		Peers:           peers,
		Partitions:      64,
		TokensPerServer: 8,
		ReplicaCapacity: 100,
		PartitionSize:   512 << 10,
		ReplicationBW:   300 << 20,
		MigrationBW:     100 << 20,
		Thresholds:      traffic.DefaultThresholds(),
		FailureRate:     0.1,
		MinAvailability: 0.8,
		HubCandidates:   3,
		PolicyName:      "rfh",
		Fsync:           true,
		SuspectAfter:    3,
		Fanout:          8,
		Seed:            1,
	}
}

// Validate checks the config and returns the roster sorted by id.
func (c *Config) Validate() error {
	if len(c.Peers) < 3 {
		return fmt.Errorf("node: need at least 3 peers, got %d (the synthetic world needs 3 datacenters)", len(c.Peers))
	}
	sort.Slice(c.Peers, func(i, j int) bool { return c.Peers[i].ID < c.Peers[j].ID })
	self := -1
	for i, p := range c.Peers {
		if i > 0 && p.ID == c.Peers[i-1].ID {
			return fmt.Errorf("node: duplicate peer id %d", p.ID)
		}
		if p.Addr == "" {
			return fmt.Errorf("node: peer %d has no address", p.ID)
		}
		if p.ID == c.ID {
			self = i
		}
	}
	if self < 0 {
		return fmt.Errorf("node: own id %d not in the peer roster", c.ID)
	}
	switch {
	case c.Partitions <= 0:
		return fmt.Errorf("node: partitions must be positive")
	case c.TokensPerServer <= 0:
		return fmt.Errorf("node: tokens per server must be positive")
	case c.ReplicaCapacity <= 0:
		return fmt.Errorf("node: replica capacity must be positive")
	case c.PartitionSize <= 0:
		return fmt.Errorf("node: partition size must be positive")
	case c.ReplicationBW <= 0 || c.MigrationBW <= 0:
		return fmt.Errorf("node: bandwidth budgets must be positive")
	case c.HubCandidates <= 0:
		return fmt.Errorf("node: hub candidates must be positive")
	case c.SuspectAfter <= 0:
		return fmt.Errorf("node: suspect-after must be positive")
	case c.Fanout < 0:
		return fmt.Errorf("node: fanout must not be negative")
	case c.WriteQuorum < 0 || c.ReadQuorum < 0:
		return fmt.Errorf("node: quorums must not be negative")
	case c.WALCompactEvery < 0 ||
		c.TransferChunkEntries < 0 || c.TransferLeaseEpochs < 0:
		return fmt.Errorf("node: durability/transfer settings must not be negative")
	case c.AEInterval < 0:
		return fmt.Errorf("node: anti-entropy interval must not be negative (0 disables)")
	}
	// 0 means "unset" for the durability and transfer knobs too.
	if c.WALCompactEvery == 0 {
		c.WALCompactEvery = 1024
	}
	if c.TransferChunkEntries == 0 {
		c.TransferChunkEntries = 256
	}
	if c.TransferLeaseEpochs == 0 {
		c.TransferLeaseEpochs = 4
	}
	// Quorums cap at MinReplicas: the policy guarantees at most that
	// many holders per partition in steady state, so a larger quorum
	// could never be met.
	if c.WriteQuorum > 1 || c.ReadQuorum > 1 {
		min, err := availability.MinReplicas(c.FailureRate, c.MinAvailability)
		if err != nil {
			return fmt.Errorf("node: quorum bound: %w", err)
		}
		if c.WriteQuorum > min {
			return fmt.Errorf("node: write quorum %d exceeds MinReplicas %d (eq. 14 with f=%g, target=%g)",
				c.WriteQuorum, min, c.FailureRate, c.MinAvailability)
		}
		if c.ReadQuorum > min {
			return fmt.Errorf("node: read quorum %d exceeds MinReplicas %d (eq. 14 with f=%g, target=%g)",
				c.ReadQuorum, min, c.FailureRate, c.MinAvailability)
		}
	}
	// 0 means "unset": normalise to the degenerate single-copy quorum,
	// matching the pre-quorum primary-only behaviour (the same
	// mutate-in-Validate convention as the Peers sort above).
	if c.WriteQuorum == 0 {
		c.WriteQuorum = 1
	}
	if c.ReadQuorum == 0 {
		c.ReadQuorum = 1
	}
	return c.Thresholds.Validate()
}

// selfIndex returns the roster index (= datacenter index) of the
// node's own id. Call after Validate.
func (c *Config) selfIndex() int {
	for i, p := range c.Peers {
		if p.ID == c.ID {
			return i
		}
	}
	return -1
}
