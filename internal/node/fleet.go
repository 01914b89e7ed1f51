package node

import (
	"fmt"
	"path/filepath"

	"repro/internal/ring"
	"repro/internal/transport"
	"repro/internal/workload"
)

// Fleet is a multi-node loopback harness: it builds N nodes over one
// in-process transport network and drives them in lockstep epochs.
// It exists for tests, the repair measurements and the chaos
// harness — a real deployment runs one cmd/rfhnode per machine
// instead.
type Fleet struct {
	lb     *transport.Loopback
	nodes  []*Node
	addrs  []string
	dead   []bool // not participating in ticks (killed or crashed)
	killed []bool // permanently closed, cannot restart
}

// WrapTransport optionally decorates each node's transport at fleet
// construction — the chaos harness uses it to interpose a
// fault-injecting transport.FaultEndpoint between every node and the
// loopback network. The returned transport is the one the node owns
// and closes.
type WrapTransport func(i int, tr transport.Transport) transport.Transport

// NewFleet builds n nodes sharing the given base config (ID and Peers
// are overwritten; all other fields are taken as-is).
func NewFleet(n int, base Config) (*Fleet, error) {
	return NewFleetWrapped(n, base, nil)
}

// NewFleetWrapped is NewFleet with a transport decorator applied to
// every node's endpoint (nil wrap means none).
func NewFleetWrapped(n int, base Config, wrap WrapTransport) (*Fleet, error) {
	peers := make([]Peer, n)
	for i := range peers {
		peers[i] = Peer{ID: i, Addr: fmt.Sprintf("node%d", i)}
	}
	f := &Fleet{lb: transport.NewLoopback(), dead: make([]bool, n), killed: make([]bool, n)}
	for i := 0; i < n; i++ {
		cfg := base
		cfg.ID = i
		cfg.Peers = append([]Peer(nil), peers...)
		// Sequential fan-out, always: the fleet is the deterministic
		// harness (seeded tests, chaos trajectories), and the chaos
		// fault wrapper's RNG draw order is only reproducible when every
		// multi-peer step sends in strict roster order.
		cfg.Fanout = 1
		// A durable fleet gives each member its own subdirectory: the
		// base DataDir is the cluster's root, not one node's.
		if base.DataDir != "" {
			cfg.DataDir = filepath.Join(base.DataDir, fmt.Sprintf("node%d", i))
		}
		var tr transport.Transport = f.lb.Endpoint(peers[i].Addr)
		if wrap != nil {
			tr = wrap(i, tr)
		}
		nd, err := New(cfg, tr)
		if err != nil {
			f.Close()
			return nil, err
		}
		f.nodes = append(f.nodes, nd)
		f.addrs = append(f.addrs, peers[i].Addr)
	}
	return f, nil
}

// Node returns fleet member i (nil while killed or crashed).
func (f *Fleet) Node(i int) *Node {
	if f.dead[i] {
		return nil
	}
	return f.nodes[i]
}

// Len returns the fleet size, dead members included.
func (f *Fleet) Len() int { return len(f.nodes) }

// Addr returns the loopback address of fleet member i.
func (f *Fleet) Addr(i int) string { return f.addrs[i] }

// Alive reports whether member i is participating (not killed, not
// crashed).
func (f *Fleet) Alive(i int) bool { return !f.dead[i] }

// NumAlive returns the number of participating members.
func (f *Fleet) NumAlive() int {
	n := 0
	for i := range f.dead {
		if !f.dead[i] {
			n++
		}
	}
	return n
}

// Kill takes node i down for good: its transport drops off the
// loopback network and the node closes. Peers see it as silent and
// suspect it after SuspectAfter epochs.
func (f *Fleet) Kill(i int) {
	if f.killed[i] {
		return
	}
	f.dead[i] = true
	f.killed[i] = true
	_ = f.nodes[i].Close() // also marks the endpoint down
}

// Crash simulates a process death of node i: its store and epoch
// state are lost and its endpoint goes unreachable, but the process
// slot survives — Restart revives it. Peers see exactly what Kill
// shows them: silence, then suspicion.
func (f *Fleet) Crash(i int) {
	if f.dead[i] {
		return
	}
	f.dead[i] = true
	f.nodes[i].Crash()
	f.lb.SetDown(f.addrs[i], true)
}

// Restart revives a crashed node i as a fresh empty process rejoining
// at the surviving cluster's current epoch. It fails if i was killed
// (not crashed) or if no live node exists to resume the epoch from.
func (f *Fleet) Restart(i int) error {
	if f.killed[i] {
		return fmt.Errorf("fleet: node %d was killed, not crashed", i)
	}
	if !f.dead[i] {
		return fmt.Errorf("fleet: node %d is not down", i)
	}
	epoch, ok := f.epochOfLowestLive()
	if !ok {
		return fmt.Errorf("fleet: no live node to resume the epoch from")
	}
	if err := f.nodes[i].Restart(epoch); err != nil {
		return err
	}
	f.lb.SetDown(f.addrs[i], false)
	f.dead[i] = false
	return nil
}

// epochOfLowestLive returns the lockstep epoch of the lowest-index
// live member.
func (f *Fleet) epochOfLowestLive() (uint64, bool) {
	for i, nd := range f.nodes {
		if !f.dead[i] {
			return nd.Epoch(), true
		}
	}
	return 0, false
}

// Tick runs one lockstep epoch: every live node flushes its stats,
// then every live node runs its decision step, both in roster order.
// This is the deterministic schedule the seeded tests rely on.
func (f *Fleet) Tick() error {
	for i, nd := range f.nodes {
		if f.dead[i] {
			continue
		}
		if err := nd.FlushEpoch(); err != nil {
			return fmt.Errorf("fleet: flush node %d: %w", i, err)
		}
	}
	for i, nd := range f.nodes {
		if f.dead[i] {
			continue
		}
		if err := nd.RunEpoch(); err != nil {
			return fmt.Errorf("fleet: run node %d: %w", i, err)
		}
	}
	return nil
}

// ReplayStats summarises one Replay call.
type ReplayStats struct {
	Queries int // queries issued
	Found   int // queries answered with a value
	Errors  int // queries that failed (unreachable hops, lost partitions)
}

// Replay issues one epoch's worth of a workload matrix against the
// fleet: Q[p][d] queries for partition p enter the cluster at node d,
// using the canonical PartitionKey for the partition. Dead entry nodes
// are skipped. Query errors are tallied, not fatal — mid-failure
// epochs are exactly when some routes dangle.
func (f *Fleet) Replay(m *workload.Matrix) ReplayStats {
	var st ReplayStats
	for p := 0; p < m.Partitions(); p++ {
		key := PartitionKey(p, f.nodes[0].cfg.Partitions)
		for d := 0; d < m.DCs() && d < len(f.nodes); d++ {
			if f.dead[d] {
				continue
			}
			for q := 0; q < m.Q[p][d]; q++ {
				st.Queries++
				_, ok, err := f.nodes[d].Get(key)
				switch {
				case err != nil:
					st.Errors++
				case ok:
					st.Found++
				}
			}
		}
	}
	return st
}

// Close shuts every node down.
func (f *Fleet) Close() {
	for i, nd := range f.nodes {
		if !f.dead[i] {
			_ = nd.Close()
		}
		f.dead[i] = true
	}
}

// PartitionKey returns a canonical key that hashes into partition p of
// `partitions`. It scans a deterministic key sequence, so the same
// (p, partitions) always yields the same key — tests and trace replay
// use it to target partitions by number.
func PartitionKey(p, partitions int) string {
	for i := 0; ; i++ {
		key := fmt.Sprintf("p%d-%d", p, i)
		if int(uint64(ring.HashString(key))%uint64(partitions)) == p {
			return key
		}
	}
}
