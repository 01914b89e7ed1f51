package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/node"
	"repro/internal/transport"
)

// nodeSeed is Config.Seed of every fleet: world, ring and policy RNG
// are the same in every run, only the traffic follows -seed.
const nodeSeed = 7

// wrapFunc decorates node i's transport (the tracer); nil means none.
type wrapFunc func(i int, tr transport.Transport) transport.Transport

// fleet is an in-process cluster of real nodes on 127.0.0.1 sockets,
// driven in lockstep epochs from outside through the nodes' public
// methods.
type fleet struct {
	nodes []*node.Node
	addrs []string
	dead  []bool
	// leaked counts, per node, the transfer sessions a crash discarded:
	// Crash drops them without counting them completed or expired.
	leaked []int64
}

func nodeConfig(s spec) node.Config {
	cfg := node.DefaultConfig(0, nil)
	cfg.Seed = nodeSeed
	cfg.WriteQuorum = s.w
	cfg.ReadQuorum = s.r
	cfg.AEInterval = s.aeInterval
	// The device flush of this sandbox drifts by a third over tens of
	// seconds, so no workload waits for it; the ledger prices it.
	cfg.Fsync = false
	// A replica can serve a whole epoch's demand: capacity is the
	// accounting signal behind eq. (12), not an admission limit, and with
	// the Table I value of 100 against thousands of queries per epoch
	// every partition is permanently short of capacity, so the policy
	// replicates and suicides for ever and set-up never converges.
	cfg.ReplicaCapacity = s.opsPerEpoch
	return cfg
}

// buildFleet starts the workload's fleet. dataDir is the root under
// which each durable node gets its own subdirectory.
func buildFleet(s spec, dataDir string, wrap wrapFunc) (*fleet, error) {
	base := nodeConfig(s)
	f := &fleet{dead: make([]bool, s.nodes), leaked: make([]int64, s.nodes)}
	opts := transport.TCPOptions{
		DialTimeout: 2 * time.Second, IOTimeout: 10 * time.Second,
		Retries: 1, RetryBackoff: 5 * time.Millisecond,
	}
	peers := make([]node.Peer, s.nodes)
	trs := make([]transport.Transport, s.nodes)
	closeAll := func() {
		for _, tr := range trs {
			if tr != nil {
				tr.Close()
			}
		}
	}
	for i := range peers {
		tr, err := transport.ListenTCP("127.0.0.1:0", nil, opts)
		if err != nil {
			closeAll()
			return nil, err
		}
		peers[i] = node.Peer{ID: i, Addr: tr.Addr()}
		trs[i] = tr
		if wrap != nil {
			trs[i] = wrap(i, tr)
		}
	}
	for i := range peers {
		cfg := base
		cfg.ID = i
		cfg.Peers = append([]node.Peer(nil), peers...)
		if s.durable {
			cfg.DataDir = filepath.Join(dataDir, fmt.Sprintf("node%d", i))
		}
		nd, err := node.New(cfg, trs[i])
		if err != nil {
			f.close() // the nodes built so far, with their engines
			closeAll()
			return nil, err
		}
		f.nodes = append(f.nodes, nd)
		f.addrs = append(f.addrs, peers[i].Addr)
	}
	return f, nil
}

func (f *fleet) close() {
	for _, nd := range f.nodes {
		nd.Close()
	}
}

// entries returns the roster indexes clients enter at: 0 and N/2, the
// two "datacenters" all load comes from.
func (f *fleet) entries() []int { return []int{0, len(f.nodes) / 2} }

// tick runs one lockstep epoch over the live nodes.
func (f *fleet) tick() error {
	for i, nd := range f.nodes {
		if f.dead[i] {
			continue
		}
		if err := nd.FlushEpoch(); err != nil {
			return fmt.Errorf("flush node %d: %w", i, err)
		}
	}
	for i, nd := range f.nodes {
		if f.dead[i] {
			continue
		}
		if err := nd.RunEpoch(); err != nil {
			return fmt.Errorf("run node %d: %w", i, err)
		}
	}
	return nil
}

// crash kills node i as a process death: store and epoch state are
// gone, the data directory stays. The socket stays open and the
// crashed node answers every frame with an error, which peers count as
// silence.
func (f *fleet) crash(i int) {
	f.dead[i] = true
	f.nodes[i].Crash()
	f.leaked[i] = openSessions(f.nodes[i])
}

// openSessions is how many outbound transfer sessions nd has started
// and neither completed nor expired.
func openSessions(nd *node.Node) int64 {
	st := nd.TransferStats()
	return st.Started - st.Completed - st.Expired
}

// restart revives node i at the survivors' epoch.
func (f *fleet) restart(i int) error {
	for j, nd := range f.nodes {
		if !f.dead[j] {
			if err := f.nodes[i].Restart(nd.Epoch()); err != nil {
				return err
			}
			f.dead[i] = false
			return nil
		}
	}
	return errors.New("no live node to take the epoch from")
}

// decisions sums the decision counters of the live nodes.
func (f *fleet) decisions() node.DecisionCounts {
	var sum node.DecisionCounts
	for i, nd := range f.nodes {
		if f.dead[i] {
			continue
		}
		c := nd.DecisionCounts()
		sum.Repl += c.Repl
		sum.Migr += c.Migr
		sum.Suicide += c.Suicide
	}
	return sum
}

// holders reports the fewest and the mean number of holders per
// partition, as the first live node's view has them.
func (f *fleet) holders() (fewest int, mean float64) {
	for i, nd := range f.nodes {
		if f.dead[i] {
			continue
		}
		rm := nd.ReplicaMap()
		fewest = len(f.nodes) + 1
		total := 0
		for _, hs := range rm {
			fewest = min(fewest, len(hs))
			total += len(hs)
		}
		return fewest, float64(total) / float64(len(rm))
	}
	return 0, 0
}

// maintenanceBytes sums the payload bytes replica movement has put on
// the wire so far: transfer sessions and one-frame ships plus
// anti-entropy. The counters outlive a crash, so the sum over all
// nodes only grows.
func (f *fleet) maintenanceBytes() int64 {
	var sum int64
	for _, nd := range f.nodes {
		sum += nd.TransferStats().BytesSent + nd.AEStats().PayloadBytes
	}
	return sum
}

// transfersIdle reports whether no live node has a transfer session in
// flight.
func (f *fleet) transfersIdle() bool {
	for i, nd := range f.nodes {
		if f.dead[i] {
			continue
		}
		if openSessions(nd) != f.leaked[i] {
			return false
		}
	}
	return true
}

// client speaks the node protocol to one entry node over a transport
// endpoint of its own, like rfhctl does.
type client struct {
	tr   transport.Transport
	addr string
}

func (c client) get(key string) (val []byte, ver uint64, found bool, err error) {
	resp, err := c.tr.Send(c.addr, &transport.Message{Kind: node.KindGet, Key: []byte(key)})
	if err != nil {
		return nil, 0, false, err
	}
	if err := resp.Err(); err != nil {
		return nil, 0, false, err
	}
	if resp.Status == transport.StatusNotFound {
		return nil, 0, false, nil
	}
	return resp.Value, resp.Version, true, nil
}

func (c client) put(key string, val []byte) (ver uint64, err error) {
	resp, err := c.tr.Send(c.addr, &transport.Message{Kind: node.KindPut, Key: []byte(key), Value: val})
	if err != nil {
		return 0, err
	}
	if err := resp.Err(); err != nil {
		return 0, err
	}
	return resp.Version, nil
}
