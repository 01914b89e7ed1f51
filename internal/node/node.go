// Package node implements the live cluster runtime: a daemon that
// serves an in-memory partitioned KV store over a transport.Transport
// and runs the paper's epoch-driven replication loop against real
// peers. The simulation substrates are reused unchanged — the ring
// (§II-B) places partitions, network.Router forwards queries along the
// same paths the simulator models, traffic.Tracker smooths the
// observed demand per eqs. (10)–(11), and the very same policy.Policy
// implementations decide replicate/migrate/suicide each epoch.
//
// Determinism: every node derives an identical cluster model (the
// "view") from the shared Config, exchanges per-epoch traffic stats
// with its peers, and runs the global policy locally. Because all
// nodes fold the same stats into the same tracker state and draw from
// the same per-epoch RNG stream, they compute identical decisions;
// each action is applied to every view, while the data movement itself
// is carried out by the involved nodes over the transport. Epochs are
// purely logical (two-phase FlushEpoch/RunEpoch ticks), so a seeded
// run over the loopback transport is bit-reproducible.
package node

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/policy"
	"repro/internal/ring"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/traffic"
	"repro/internal/transport"
	"repro/internal/workload"
)

// ErrClosed is returned by operations on a closed node.
var ErrClosed = errors.New("node: closed")

// ErrCrashed is returned by operations on a crashed node (Crash was
// called and Restart has not yet revived it).
var ErrCrashed = errors.New("node: crashed")

// ErrNotFlushed is returned by RunEpoch when FlushEpoch has not been
// called for the epoch in flight.
var ErrNotFlushed = errors.New("node: epoch not flushed")

// DecisionCounts tallies the replication actions a node has applied to
// its view since start. All nodes of a healthy cluster apply the same
// decisions, so equal seeds must yield equal counts on every node —
// the determinism tests assert exactly that.
type DecisionCounts struct {
	Repl    int
	Migr    int
	Suicide int
}

// Node is one member of a live RFH cluster. Create with New, drive
// epochs with FlushEpoch/RunEpoch (or let cmd/rfhnode's ticker do it),
// and Close when done. All methods are safe for concurrent use.
//
// Locking splits the data plane from the control plane: n.mu is a
// RWMutex whose read side guards the view pointers the request paths
// consult (Get/Put/Sync/Drop and the transfer handlers take RLock,
// then the touched partition's own shard lock inside store), while the
// write side is reserved for the epoch machinery and lifecycle
// transitions (FlushEpoch, RunEpoch, Crash, Restart, handleStats). Concurrent
// reads and writes for different partitions therefore never serialise
// against each other, and contend with an epoch tick only for the
// tick's own duration. Lock hierarchy: n.mu before any store shard
// lock; no lock is ever held across a transport Send.
type Node struct {
	cfg  Config
	self int // roster index == DCID == ServerID
	pol  policy.Policy
	tr   transport.Transport

	mu       sync.RWMutex
	view     *view
	store    *store
	tracker  *traffic.Tracker
	rng      *stats.RNG
	epoch    uint64
	missed   []int  // consecutive epochs without stats from peer i
	suspect  []bool // peer i currently presumed failed
	orphaned []int  // consecutive epochs without any claim for partition p
	pending  []*statsBlob
	nextPend []*statsBlob // stats that arrived one epoch ahead
	counts   DecisionCounts
	closed   bool

	// crashed marks a simulated process death: all operations fail
	// until Restart. recovering marks the post-restart window in which
	// the node has rejoined with an empty view and must not trust its
	// own placement: it serves no data, emits no claims, runs no policy
	// decisions and reseeds nothing until every partition has been
	// re-learned from the live primaries' claims.
	crashed    bool
	recovering bool

	// syncFails counts replica copies this node could not land: as a
	// primary, syncs that failed (send failed, or the holder refused and
	// the ship fallback failed too); as a forwarding holder, its own
	// delegated apply refused after a drop or crash. Atomic because the
	// fan-out runs outside n.mu. Every failure is a holder missing a
	// write until repair catches it — surfaced in DumpInfo so operators
	// see silent replication decay.
	syncFails atomic.Int64

	// Outbound transfer sessions (see transfer.go). xmu is a
	// leaf lock under n.mu; never held across a send. xgen is the
	// store's boot generation, folded into session ids so a restarted
	// process never re-issues one (0 in memory mode); it is written
	// only under n.mu in write mode (New/Restart) and read with n.mu
	// held in either mode.
	xmu    sync.Mutex
	xfers  []*xferSession
	xgen   uint64
	xseq   uint64
	xstats TransferStats

	// Anti-entropy counters (see ae.go). Atomic because AE sessions
	// book theirs under xmu alone, not n.mu.
	aeRoundsN   atomic.Int64
	aeSyncedN   atomic.Int64
	aeSessionsN atomic.Int64
	aeRepairsN  atomic.Int64
	aePayloadN  atomic.Int64
}

// outOp is one data-movement message to perform after the view update,
// outside the node lock (the loopback transport delivers synchronously
// on the caller's goroutine, so sending under the lock could deadlock
// two nodes against each other).
type outOp struct {
	peer int
	msg  *transport.Message
}

// New builds a node over the given transport and installs its message
// handler. The node owns the transport and closes it.
func New(cfg Config, tr transport.Transport) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	v, err := newView(&cfg, true)
	if err != nil {
		return nil, err
	}
	pol, err := core.NewPolicy(cfg.PolicyName)
	if err != nil {
		return nil, err
	}
	tk, err := traffic.NewTracker(cfg.Partitions, len(cfg.Peers), cfg.Thresholds)
	if err != nil {
		return nil, err
	}
	st, err := openStore(&cfg, cfg.DataDir, false)
	if err != nil {
		return nil, err
	}
	n := &Node{
		cfg:      cfg,
		self:     cfg.selfIndex(),
		pol:      pol,
		tr:       tr,
		view:     v,
		store:    st,
		xgen:     st.Generation(),
		tracker:  tk,
		rng:      stats.NewRNG(cfg.Seed ^ 0x90DE),
		missed:   make([]int, len(cfg.Peers)),
		suspect:  make([]bool, len(cfg.Peers)),
		orphaned: make([]int, cfg.Partitions),
		pending:  make([]*statsBlob, len(cfg.Peers)),
		nextPend: make([]*statsBlob, len(cfg.Peers)),
	}
	tr.SetHandler(n.Handle)
	return n, nil
}

// Self returns the node's roster index (== datacenter == server id).
func (n *Node) Self() int { return n.self }

// ID returns the node's configured id.
func (n *Node) ID() int { return n.cfg.ID }

// Epoch returns the number of completed epochs.
func (n *Node) Epoch() uint64 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.epoch
}

// MinReplicas returns the eq. (14) availability lower limit in force.
func (n *Node) MinReplicas() int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.view.minReplicas
}

// DecisionCounts returns the cumulative decision tally.
func (n *Node) DecisionCounts() DecisionCounts {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.counts
}

// SyncFails returns the cumulative count of replica copies this node
// failed to land: syncs it sent as a primary (send failed, or the
// holder refused and the ship fallback failed too), and its own
// copy of a write it forwarded as a holder when the primary left that
// copy to it but a drop or crash refused the apply.
func (n *Node) SyncFails() int64 { return n.syncFails.Load() }

// PartitionOf maps a key to its partition: the key's ring hash modulo
// the partition count.
func (n *Node) PartitionOf(key string) int {
	return int(uint64(ring.HashString(key)) % uint64(n.cfg.Partitions))
}

// Crash simulates a process death: the store and all epoch state are
// lost and every operation fails with ErrCrashed until Restart. The
// store is closed mid-flight — for a durable node whatever the WALs
// hold is what a Restart in the same data dir will recover — and a
// blank, nowhere-resident memory store stands in until then. The
// transport is left open — making the endpoint unreachable (so peers
// see silence, not errors) is the harness's business, e.g. Fleet.Crash
// or transport partitioning.
func (n *Node) Crash() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed || n.crashed {
		return
	}
	n.crashed = true
	n.clearTransfersLocked()
	_ = n.store.Close() // simulated power-off: close errors are part of the crash
	// A memory open of a validated config cannot fail; if it ever did,
	// the closed store stays in place and refuses everything.
	if blank, err := openStore(&n.cfg, "", true); err == nil {
		n.store = blank
	}
	for i := range n.pending {
		n.pending[i] = nil
		n.nextPend[i] = nil
	}
}

// Restart revives a crashed node as a fresh process rejoining at the
// given cluster epoch: empty store, empty placement view, fresh
// tracker and suspicion state. The node comes back in recovering mode
// — it broadcasts stats (so peers unsuspect it) but serves no data,
// emits no placement claims and runs no policy decisions until the
// live primaries' claims have re-populated its view for every
// partition; only then does it participate fully again. Rejoining with
// an empty view instead of the seed placement is what keeps a
// long-dead node from asserting a stale world on its peers.
func (n *Node) Restart(epoch uint64) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return ErrClosed
	}
	if !n.crashed {
		return fmt.Errorf("node %d: restart of a node that did not crash", n.cfg.ID)
	}
	v, err := newView(&n.cfg, false)
	if err != nil {
		return err
	}
	tk, err := traffic.NewTracker(n.cfg.Partitions, len(n.cfg.Peers), n.cfg.Thresholds)
	if err != nil {
		return err
	}
	// Whatever the data dir recovers rejoins non-resident but is NOT
	// discarded: once the view is re-learned, the rejoin path pushes it
	// back to the current primaries, which is what makes acked writes
	// survive the crash of their whole holder set.
	st, err := openStore(&n.cfg, n.cfg.DataDir, true)
	if err != nil {
		return fmt.Errorf("node %d: restart recovery: %w", n.cfg.ID, err)
	}
	// Fresh boot generation: outbound session ids issued after this
	// restart can never collide with ids the pre-crash boot used, which
	// targets may durably remember as already complete.
	n.xgen = st.Generation()
	n.view = v
	n.store = st
	n.tracker = tk
	n.epoch = epoch
	n.counts = DecisionCounts{}
	for i := range n.cfg.Peers {
		n.missed[i] = 0
		n.suspect[i] = false
		n.pending[i] = nil
		n.nextPend[i] = nil
	}
	for p := range n.orphaned {
		n.orphaned[p] = 0
	}
	n.crashed = false
	n.recovering = true
	n.syncFails.Store(0)
	return nil
}

// Crashed reports whether the node is currently crashed.
func (n *Node) Crashed() bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.crashed
}

// Recovering reports whether the node is in the post-restart window
// where its view is still being re-learned from peer claims.
func (n *Node) Recovering() bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.recovering
}

// Close shuts the node down and closes its transport and store.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	st := n.store
	n.mu.Unlock()
	storeErr := st.Close()
	if err := n.tr.Close(); err != nil {
		return err
	}
	return storeErr
}

// peerAddr returns the transport address of roster index i.
func (n *Node) peerAddr(i int) string { return n.cfg.Peers[i].Addr }

// Handle is the transport handler: it dispatches one inbound message.
// It is exported so callers wiring their own transports (and the
// closecheck testdata) can reference it, but normally the constructor
// installs it.
func (n *Node) Handle(from string, req *transport.Message) (*transport.Message, error) {
	// A crashed process answers nothing. The transport layer normally
	// makes a crashed node unreachable too; this guard covers wrappers
	// and direct calls that bypass it.
	if n.Crashed() {
		return nil, ErrCrashed
	}
	// The exhaustive annotation makes adding a Kind* constant without a
	// dispatch case a lint failure, default clause notwithstanding.
	//lint:exhaustive
	switch req.Kind {
	case KindGet:
		return n.handleGet(req)
	case KindPut:
		return n.handlePut(req)
	case KindSync:
		return n.handleSync(req)
	case KindVer:
		return n.handleVer(req)
	case KindXferBegin:
		return n.handleXferBegin(req)
	case KindXferChunk:
		return n.handleXferChunk(req)
	case KindXferCursor:
		return n.handleXferCursor(req)
	case KindXferDone:
		return n.handleXferDone(req)
	case KindXferOffer:
		return n.handleXferOffer(req)
	case KindDrop:
		return n.handleDrop(req)
	case KindStats:
		return n.handleStats(req)
	case KindPing:
		return &transport.Message{Kind: KindPing}, nil
	case KindEpochFlush:
		if err := n.FlushEpoch(); err != nil {
			return nil, err
		}
		return &transport.Message{Kind: KindEpochFlush, Epoch: n.Epoch()}, nil
	case KindEpochRun:
		if err := n.RunEpoch(); err != nil {
			return nil, err
		}
		return &transport.Message{Kind: KindEpochRun, Epoch: n.Epoch()}, nil
	case KindDump:
		return n.handleDump()
	default:
		return nil, fmt.Errorf("node %d: unknown message kind %d", n.cfg.ID, req.Kind)
	}
}

// checkPartition validates a wire partition index.
func (n *Node) checkPartition(p uint32) (int, error) {
	if int(p) >= n.cfg.Partitions {
		return 0, fmt.Errorf("node %d: partition %d out of range", n.cfg.ID, p)
	}
	return int(p), nil
}

// --- Query path -----------------------------------------------------

// Get looks a key up, entering the query into the cluster at this
// node. The query is served by the first node along the routing path
// that holds a replica with capacity to spare (every other hop records
// transit traffic — exactly the per-DC arrival signal the policies
// feed on). With ReadQuorum > 1 the serving node coordinates a quorum
// read: it probes other holders for their stored versions, answers
// with the highest version any quorum member holds, and read-repairs
// the stale copies it observed.
func (n *Node) Get(key string) ([]byte, bool, error) {
	v, _, ok, err := n.routeGet(n.PartitionOf(key), key, n.self, 0)
	return v, ok, err
}

// GetVersioned is Get exposing the winning copy's version stamp (0 for
// not-found or unversioned data) — history recorders need the version
// to reason about session guarantees, not just the bytes.
func (n *Node) GetVersioned(key string) ([]byte, uint64, bool, error) {
	v, ver, ok, err := n.routeGet(n.PartitionOf(key), key, n.self, 0)
	return v, ver, ok, err
}

// routeGet handles one query arrival at this node (origin is the
// roster index where it entered, hops the forwards so far). The
// returned version is the winning copy's stamp (0 for not-found or
// unversioned data).
func (n *Node) routeGet(p int, key string, origin, hops int) ([]byte, uint64, bool, error) {
	if hops > len(n.cfg.Peers) {
		return nil, 0, false, fmt.Errorf("node %d: routing loop for partition %d (%d hops)", n.cfg.ID, p, hops)
	}
	n.mu.RLock()
	if n.closed || n.crashed {
		err := ErrClosed
		if n.crashed {
			err = ErrCrashed
		}
		n.mu.RUnlock()
		return nil, 0, false, err
	}
	primary := n.view.primary(p)
	// A replica under its per-epoch capacity serves; the primary
	// always serves but counts the excess as overflow — the live path
	// never refuses a query, it records the pressure signal behind
	// eq. (12) instead. A non-resident replica (drop order applied but
	// the peer views' claims have not caught up, or its transfer session
	// still in flight) forwards to the primary instead of serving
	// content it no longer vouches for. The arrival accounting and capacity check are
	// atomic under the partition's counter lock.
	v, ver, ok, served := n.store.arriveAndTryServe(p, key, hops == 0,
		n.cfg.ReplicaCapacity, primary == n.self, n.view.hasReplica(p, n.self))
	if served {
		r := n.cfg.ReadQuorum
		if r <= 1 {
			n.mu.RUnlock()
			return v, ver, ok, nil
		}
		targets := n.readTargetsLocked(p, primary)
		part := n.store.Part(p)
		n.mu.RUnlock()
		return n.quorumRead(p, part, key, v, ver, ok, targets, r)
	}
	if primary < 0 {
		n.mu.RUnlock()
		return nil, 0, false, fmt.Errorf("node %d: partition %d has no primary", n.cfg.ID, p)
	}
	next := int(n.view.router.NextHop(topology.DCID(n.self), topology.DCID(primary)))
	addr := n.peerAddr(next)
	n.mu.RUnlock()

	resp, err := n.tr.Send(addr, &transport.Message{
		Kind: KindGet, Partition: uint32(p), Origin: uint32(origin), Hops: uint32(hops + 1),
		Key: []byte(key),
	})
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

// readTargetsLocked returns the quorum read's probe order for
// partition p: the primary first (the copy most likely to hold the
// newest version, so quorums assemble fast), then the remaining
// holders ascending. Self is excluded — the coordinator's own copy is
// vote #1.
func (n *Node) readTargetsLocked(p, primary int) []int {
	var targets []int
	if primary >= 0 && primary != n.self {
		targets = append(targets, primary)
	}
	for _, s := range n.view.cluster.ReplicaServers(p) {
		if int(s) == n.self || int(s) == primary {
			continue
		}
		targets = append(targets, int(s))
	}
	return targets
}

// readVote is one holder's answer in a quorum read: what it physically
// stores for the key. A resident holder without the key votes
// found=false at version 0 — "authoritatively absent".
type readVote struct {
	peer  int
	val   []byte
	ver   uint64
	found bool
}

// quorumRead assembles r version votes for one key (the coordinator's
// own copy plus KindVer probes down the target list until enough
// holders answered), returns the highest-versioned copy, and pushes
// that winner to every stale voter it saw — read-repair, the
// foreground half of anti-entropy: any divergence a quorum read can
// observe it also heals. Unreachable or non-resident holders don't
// vote, and the read fails when fewer than r votes assemble; a
// non-resident voter is shipped the partition from a resident
// coordinator, so the next read counts it.
// part is the coordinator's own copy of p, taken under n.mu: a crash
// swaps the store, so the pointer must not be re-read here. Callers
// must not hold n.mu.
//
//lint:requires-unlocked n.mu
func (n *Node) quorumRead(p int, part *durable.Partition, key string, v []byte, ver uint64, ok bool, targets []int, r int) ([]byte, uint64, bool, error) {
	votes := []readVote{{peer: n.self, val: v, ver: ver, found: ok}}
	var unresident []int
	for _, t := range targets {
		if len(votes) >= r {
			break
		}
		resp, err := n.tr.Send(n.peerAddr(t), &transport.Message{
			Kind: KindVer, Partition: uint32(p), Key: []byte(key),
		})
		if err != nil {
			continue
		}
		switch resp.Status {
		case transport.StatusOK:
			votes = append(votes, readVote{peer: t, val: resp.Value, ver: resp.Version, found: true})
		case transport.StatusNotFound:
			votes = append(votes, readVote{peer: t, found: false})
		case transport.StatusRetry:
			unresident = append(unresident, t)
		default:
			// StatusError: the holder answered but could not serve the
			// probe, so it does not vote. The quorum check below decides
			// whether the read still stands.
		}
	}
	// A non-resident holder does not vote either, and nothing else may
	// ever ship to it — a holder promoted to primary while non-resident
	// is no one's sync target. Heal it from this copy when this copy is
	// authoritative, as syncHolder heals a sync target; later reads then
	// count its vote.
	if len(unresident) > 0 && part.Stats().Resident {
		for _, t := range unresident {
			n.shipPartition(p, t, 0)
		}
	}
	if len(votes) < r {
		return nil, 0, false, fmt.Errorf("node %d: read quorum not met for partition %d: %d/%d holders answered",
			n.cfg.ID, p, len(votes), r)
	}
	win := -1
	for i := range votes {
		if votes[i].found && (win < 0 || votes[i].ver > votes[win].ver) {
			win = i
		}
	}
	if win < 0 {
		return nil, 0, false, nil // the whole quorum agrees: absent
	}
	w := votes[win]
	var ops []outOp
	for i := range votes {
		vt := &votes[i]
		if vt.found && vt.ver >= w.ver {
			continue
		}
		if vt.peer == n.self {
			part.ApplySync(key, w.val, w.ver)
			continue
		}
		ops = append(ops, outOp{peer: vt.peer, msg: &transport.Message{
			Kind: KindSync, Partition: uint32(p), Version: w.ver, Key: []byte(key), Value: w.val,
		}})
	}
	n.sendOps(ops)
	return w.val, w.ver, true, nil
}

func (n *Node) handleGet(req *transport.Message) (*transport.Message, error) {
	// The partition is a function of the key, so client requests (zero
	// hops, e.g. from rfhctl) need not know the partition count; for
	// forwarded requests the stamped partition must agree.
	key := string(req.Key)
	p := n.PartitionOf(key)
	if req.Hops > 0 && int(req.Partition) != p {
		return nil, fmt.Errorf("node %d: key maps to partition %d, message says %d", n.cfg.ID, p, req.Partition)
	}
	origin := int(req.Origin)
	if req.Hops == 0 {
		origin = n.self
	}
	v, ver, ok, err := n.routeGet(p, key, origin, int(req.Hops))
	if err != nil {
		return nil, err
	}
	if !ok {
		return &transport.Message{Kind: KindGet, Status: transport.StatusNotFound, Partition: uint32(p)}, nil
	}
	return &transport.Message{Kind: KindGet, Partition: uint32(p), Version: ver, Value: v}, nil
}

// --- Write path -----------------------------------------------------

// PutReceipt is a write acknowledgement: the version the primary
// stamped on the value and the ascending roster indexes of every
// holder that durably accepted it before the ack. len(Acked) is always
// at least the configured WriteQuorum on success.
type PutReceipt struct {
	Version uint64
	Acked   []int
}

// Put stores a key/value pair. Non-primary nodes proxy the write to
// the partition's primary, which stamps a version, applies it locally,
// syncs the other replica holders, and acks only once WriteQuorum
// holders (itself included) durably accepted the write. A proxying node
// that is itself a resident holder takes its copy from the primary's
// reply instead of from a sync, and acks only once it applied it.
func (n *Node) Put(key string, value []byte) error {
	_, err := n.PutQuorum(key, value)
	return err
}

// PutQuorum is Put returning the full write receipt: the stamped
// version and the exact holder set that accepted the write before the
// ack.
func (n *Node) PutQuorum(key string, value []byte) (PutReceipt, error) {
	rcpt, _, err := n.routePut(n.PartitionOf(key), []byte(key), value, 0, -1)
	return rcpt, err
}

// maxInlineHolders is the holder count up to which a put's sync targets
// live in a stack array; larger holder sets spill to the heap.
const maxInlineHolders = 8

// routePut handles one put arrival at this node: the primary stamps,
// applies and syncs it, any other node forwards it to the primary.
// offerer is the roster index of the forwarding holder that offered to
// apply the write itself, or -1. The primary accepts the offer only if
// its own view lists the offerer as a holder, and reports that in
// delegated: it then neither syncs the offerer nor counts it in the
// receipt, and refuses early only if the offerer's ack could not make
// up the quorum — the W decision is the forwarder's (forwardPut).
func (n *Node) routePut(p int, key, value []byte, hops, offerer int) (rcpt PutReceipt, delegated bool, err error) {
	n.mu.RLock()
	if n.closed || n.crashed {
		err := ErrClosed
		if n.crashed {
			err = ErrCrashed
		}
		n.mu.RUnlock()
		return PutReceipt{}, false, err
	}
	primary := n.view.primary(p)
	if primary != n.self {
		// The rule handleSync applies to a sync: only a resident copy
		// this node's own view lists as a holder may take the write.
		offer := n.view.hasReplica(p, n.self) && n.store.Part(p).Stats().Resident
		n.mu.RUnlock()
		if primary < 0 {
			return PutReceipt{}, false, fmt.Errorf("node %d: partition %d has no primary", n.cfg.ID, p)
		}
		if hops > 0 {
			// A proxied put landing on a non-primary means the sender's
			// view disagrees with ours; refuse rather than bounce it around.
			return PutReceipt{}, false, fmt.Errorf("node %d: not primary for partition %d", n.cfg.ID, p)
		}
		rcpt, err := n.forwardPut(p, primary, key, value, offer)
		return rcpt, false, err
	}
	// Stamp and apply locally first: the primary's copy is ack #1, and
	// the fan-out below carries the stamped version. Applying before the
	// quorum verdict means a refused write may still become visible —
	// standard quorum-store semantics (a failed write is "not guaranteed
	// durable", not "guaranteed absent"), and the version keeps every
	// copy ordered regardless. On a durable node ack #1 means the WAL
	// append landed: a log refusal fails the write outright instead of
	// acking a record the disk never saw.
	ver, err := n.store.Part(p).StampPut(string(key), value, n.epoch<<versionEpochShift)
	if err != nil {
		n.mu.RUnlock()
		return PutReceipt{}, false, fmt.Errorf("node %d: durable apply failed for partition %d: %w", n.cfg.ID, p, err)
	}
	delegated = offerer >= 0 && offerer != n.self && n.view.hasReplica(p, offerer)
	var buf [maxInlineHolders]cluster.ServerID
	holders := n.view.cluster.AppendReplicaServers(buf[:0], p)
	targets := holders[:0]
	for _, s := range holders {
		if int(s) != n.self && !(delegated && int(s) == offerer) {
			targets = append(targets, s)
		}
	}
	n.mu.RUnlock()
	synced := n.syncWrite(p, key, value, ver, targets)
	if fails := len(targets) - len(synced); fails > 0 {
		n.syncFails.Add(int64(fails))
	}
	acked := make([]int, 0, len(synced)+1)
	acked = append(acked, n.self)
	for _, s := range synced {
		acked = append(acked, int(s))
	}
	sort.Ints(acked)
	rcpt = PutReceipt{Version: ver, Acked: acked}
	w := n.cfg.WriteQuorum
	if delegated {
		w-- // the forwarder's ack is still to come
	}
	if len(acked) < w {
		return rcpt, delegated, fmt.Errorf("node %d: write quorum not met for partition %d: %d/%d holders acked",
			n.cfg.ID, p, len(acked), n.cfg.WriteQuorum)
	}
	return rcpt, delegated, nil
}

// forwardPut proxies a put to the partition's primary. With offer set
// this node holds a resident copy and asks the primary to leave that
// copy to it; if the primary accepts, the node applies the stamped
// write itself before it answers, so every holder the receipt names has
// the write when the ack leaves — as when the primary syncs it. A
// drop or crash since the offer refuses the apply: the holder is then
// missing from the receipt and counted in syncFails. The W decision for
// the forwarded put is made here, on the complete ack set. Callers must
// not hold n.mu.
//
//lint:requires-unlocked n.mu
func (n *Node) forwardPut(p, primary int, key, value []byte, offer bool) (PutReceipt, error) {
	req := &transport.Message{Kind: KindPut, Partition: uint32(p), Hops: 1, Key: key, Value: value}
	if offer {
		req.Origin, req.Cursor = uint32(n.self), putDelegate
	}
	resp, err := n.tr.Send(n.peerAddr(primary), req)
	if err != nil {
		return PutReceipt{}, err
	}
	if err := resp.Err(); err != nil {
		return PutReceipt{}, err
	}
	acked, err := decodeAckSet(resp.Value, len(n.cfg.Peers))
	if err != nil {
		return PutReceipt{}, err
	}
	rcpt := PutReceipt{Version: resp.Version, Acked: acked}
	if offer && resp.Cursor == putDelegate {
		n.mu.RLock()
		applied := !n.closed && !n.crashed && n.view.hasReplica(p, n.self) &&
			n.store.Part(p).ApplySync(string(key), value, rcpt.Version)
		n.mu.RUnlock()
		if applied {
			i, _ := slices.BinarySearch(acked, n.self)
			rcpt.Acked = slices.Insert(acked, i, n.self)
		} else {
			n.syncFails.Add(1)
		}
	}
	if w := n.cfg.WriteQuorum; len(rcpt.Acked) < w {
		return rcpt, fmt.Errorf("node %d: write quorum not met for partition %d: %d/%d holders acked",
			n.cfg.ID, p, len(rcpt.Acked), w)
	}
	return rcpt, nil
}

// syncWrite pushes one stamped write to the given holders and returns
// the ones that durably acked it, compacted in place into targets'
// backing array. Sends run sequentially in holder order when
// cfg.Fanout <= 1 or there is a single target — the deterministic
// order fanOut promises — and over at most Fanout concurrent senders
// otherwise. The sequential case captures nothing in a closure, so a
// put whose targets sit in a stack array keeps them there. Callers
// must not hold n.mu.
//
//lint:requires-unlocked n.mu
func (n *Node) syncWrite(p int, key, value []byte, ver uint64, targets []cluster.ServerID) []cluster.ServerID {
	acked := targets[:0]
	if n.cfg.Fanout <= 1 || len(targets) <= 1 {
		for _, t := range targets {
			if n.syncHolder(p, int(t), key, value, ver) {
				acked = append(acked, t)
			}
		}
		return acked
	}
	// fanOut's closure escapes to its goroutines, and with it all it
	// captures: give it heap copies rather than the caller's array.
	peers := append([]cluster.ServerID(nil), targets...)
	ok := make([]bool, len(peers))
	n.fanOut(len(peers), func(i int) { ok[i] = n.syncHolder(p, int(peers[i]), key, value, ver) })
	for i, t := range peers {
		if ok[i] {
			acked = append(acked, t)
		}
	}
	return acked
}

// syncHolder pushes one stamped write to one holder and reports whether
// it durably acked it. A holder that answers StatusRetry has no
// resident copy to apply onto (mid-rejoin, or claim-added before its
// own view even lists it as a holder); it is healed with a ship whose
// frozen state provably contains this stamped write, and the ship's
// landing IS the durable ack — re-sending the sync would prove nothing,
// since handleSync keeps refusing until the holder's view catches up an
// epoch later. Callers must not hold n.mu.
//
//lint:requires-unlocked n.mu
func (n *Node) syncHolder(p, t int, key, value []byte, ver uint64) bool {
	resp, err := n.tr.Send(n.peerAddr(t), &transport.Message{
		Kind: KindSync, Partition: uint32(p), Version: ver, Key: key, Value: value,
	})
	switch {
	case err != nil:
		return false
	case resp.Status == transport.StatusRetry:
		return n.shipPartition(p, t, ver)
	default:
		return resp.Status == transport.StatusOK
	}
}

// fanOut runs do(0) … do(count-1), the unit of every multi-peer send.
// With cfg.Fanout <= 1 the calls run strictly sequentially in index
// order: the deterministic harnesses depend on that, because the chaos
// fault wrapper consumes a shared RNG stream per send and its draw
// order is part of a seed's byte-identical trajectory. Larger fanouts
// run at most Fanout calls at once — the wall-clock win for live
// clusters, where a slow peer otherwise stalls the whole step — and
// the caller runs the last one itself, so count calls cost count−1
// goroutines and a single call costs none.
func (n *Node) fanOut(count int, do func(i int)) {
	if n.cfg.Fanout <= 1 || count <= 1 {
		for i := 0; i < count; i++ {
			do(i)
		}
		return
	}
	sem := make(chan struct{}, n.cfg.Fanout-1) // the caller is the Fanout-th sender
	var wg sync.WaitGroup
	for i := 0; i < count-1; i++ {
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			do(i)
		}(i)
	}
	do(count - 1)
	wg.Wait()
}

func (n *Node) handlePut(req *transport.Message) (*transport.Message, error) {
	p := n.PartitionOf(string(req.Key))
	if req.Hops > 0 && int(req.Partition) != p {
		return nil, fmt.Errorf("node %d: key maps to partition %d, message says %d", n.cfg.ID, p, req.Partition)
	}
	offerer := -1
	if req.Hops > 0 && req.Cursor == putDelegate {
		offerer = int(req.Origin)
	}
	// The request's key bytes ride on: they are only borrowed for this
	// call, and the forward and the syncs finish before it returns.
	rcpt, delegated, err := n.routePut(p, req.Key, req.Value, int(req.Hops), offerer)
	if err != nil {
		return nil, err
	}
	resp := &transport.Message{
		Kind: KindPut, Partition: uint32(p), Version: rcpt.Version,
		Value: appendAckSet(nil, rcpt.Acked),
	}
	if delegated {
		resp.Cursor = putDelegate
	}
	return resp, nil
}

func (n *Node) handleSync(req *transport.Message) (*transport.Message, error) {
	p, err := n.checkPartition(req.Partition)
	if err != nil {
		return nil, err
	}
	n.mu.RLock()
	acked := false
	if n.view.hasReplica(p, n.self) {
		acked = n.store.Part(p).ApplySync(string(req.Key), req.Value, req.Version)
	}
	n.mu.RUnlock()
	if !acked {
		// Not a holder by our own view, or not resident: this copy is
		// not authoritative, so the write did not durably land here.
		return &transport.Message{Kind: KindSync, Partition: req.Partition, Status: transport.StatusRetry}, nil
	}
	return &transport.Message{Kind: KindSync, Partition: req.Partition}, nil
}

// handleVer answers a quorum read's version probe from the physical
// store: no routing, no capacity accounting. A non-resident partition
// answers StatusRetry — its content is not authoritative and must not
// vote.
func (n *Node) handleVer(req *transport.Message) (*transport.Message, error) {
	p, err := n.checkPartition(req.Partition)
	if err != nil {
		return nil, err
	}
	n.mu.RLock()
	v, ver, ok, resident := n.store.Part(p).Get(string(req.Key))
	n.mu.RUnlock()
	switch {
	case !resident:
		return &transport.Message{Kind: KindVer, Partition: req.Partition, Status: transport.StatusRetry}, nil
	case !ok:
		return &transport.Message{Kind: KindVer, Partition: req.Partition, Status: transport.StatusNotFound}, nil
	default:
		return &transport.Message{Kind: KindVer, Partition: req.Partition, Version: ver, Value: v}, nil
	}
}

// --- Replica drop ----------------------------------------------------

func (n *Node) handleDrop(req *transport.Message) (*transport.Message, error) {
	p, err := n.checkPartition(req.Partition)
	if err != nil {
		return nil, err
	}
	n.mu.RLock()
	// A legitimate drop never targets the partition's primary (the
	// decision protocol never moves or suicides the primary copy), so a
	// drop arriving at the node currently leading the partition is
	// stale — typically delayed in flight across the epoch in which
	// this node was promoted. Discarding the one copy every view now
	// treats as authoritative would be silent data loss; refuse it.
	refused := n.view.primary(p) == n.self
	if !refused {
		n.store.Part(p).Drop()
	}
	n.mu.RUnlock()
	if refused {
		return &transport.Message{Kind: KindDrop, Partition: req.Partition, Status: transport.StatusRetry}, nil
	}
	return &transport.Message{Kind: KindDrop, Partition: req.Partition}, nil
}

// --- Epoch machinery ------------------------------------------------

func (n *Node) handleStats(req *transport.Message) (*transport.Message, error) {
	idx := int(req.Origin)
	if idx < 0 || idx >= len(n.cfg.Peers) || idx == n.self {
		return nil, fmt.Errorf("node %d: stats from invalid peer index %d", n.cfg.ID, idx)
	}
	blob, err := decodeStats(req.Value, n.cfg.Partitions, len(n.cfg.Peers))
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	switch req.Epoch {
	case n.epoch:
		n.pending[idx] = blob
	case n.epoch + 1:
		// The sender has already ticked past us; hold its stats for our
		// next epoch so free-running tickers that drift by one phase do
		// not trigger spurious suspicion.
		n.nextPend[idx] = blob
	}
	n.mu.Unlock()
	return &transport.Message{Kind: KindStats, Epoch: req.Epoch}, nil
}

// FlushEpoch snapshots this node's per-partition counters and
// placement claims for the epoch in flight and broadcasts them to all
// peers (phase A of the two-phase tick). Counters reset at the
// snapshot, so every query is reported in exactly one epoch. Broadcast
// failures are not errors: an unreachable peer simply misses the
// stats, which is what the suspicion mechanism measures.
func (n *Node) FlushEpoch() error {
	n.mu.Lock()
	if n.closed || n.crashed {
		err := ErrClosed
		if n.crashed {
			err = ErrCrashed
		}
		n.mu.Unlock()
		return err
	}
	blob := &statsBlob{counters: n.store.flushCounters()}
	for p := 0; p < n.cfg.Partitions; p++ {
		// A recovering node's view is still being re-learned from peer
		// claims: until it is complete the node must not assert any
		// placement of its own.
		if n.recovering || n.view.primary(p) != n.self {
			continue
		}
		holders := n.view.cluster.ReplicaServers(p)
		cl := placementClaim{partition: p, primary: n.self}
		for _, s := range holders {
			cl.replicas = append(cl.replicas, int(s))
		}
		blob.claims = append(blob.claims, cl)
	}
	// Piggyback the anti-entropy roots on the stats broadcast: on
	// AEInterval boundaries each co-held partition this node holds
	// resident contributes its O(1) live digest root, which RunEpoch
	// compares. No dedicated digest frames.
	blob.roots = n.aeRootsLocked()
	n.pending[n.self] = blob
	epoch := n.epoch
	enc := appendStats(nil, blob)
	n.mu.Unlock()

	ops := make([]outOp, 0, len(n.cfg.Peers)-1)
	for i := range n.cfg.Peers {
		if i == n.self {
			continue
		}
		ops = append(ops, outOp{peer: i, msg: &transport.Message{
			Kind: KindStats, Origin: uint32(n.self), Epoch: epoch, Value: enc,
		}})
	}
	n.sendOps(ops)
	return nil
}

// sendOps performs a logical step's peer sends — best-effort, reply
// errors discarded (an unreachable peer simply misses the message,
// which is what the suspicion and residency machinery measure) —
// sequentially in slice order or concurrently as fanOut decides.
// Callers must not hold n.mu in either mode: the loopback transport
// delivers synchronously on the sending goroutine.
//
//lint:requires-unlocked n.mu
func (n *Node) sendOps(ops []outOp) {
	if len(ops) == 0 {
		return // the common case on the read path: nobody to repair
	}
	n.fanOut(len(ops), func(i int) {
		if resp, err := n.tr.Send(n.peerAddr(ops[i].peer), ops[i].msg); err == nil {
			//lint:ignore rfhlint/errsink best-effort broadcast: a peer's reply error is equivalent to an unreachable peer, which the suspicion machinery measures
			_ = resp.Err()
		}
	})
}

// RunEpoch completes the epoch (phase B): it ages peer suspicion,
// reconciles placement claims, folds the collected stats into the
// traffic tracker, runs the policy on the resulting context, applies
// the decision to the view, and ships the data movements it is
// responsible for. FlushEpoch must have run first for this epoch.
func (n *Node) RunEpoch() error {
	n.mu.Lock()
	if n.closed || n.crashed {
		err := ErrClosed
		if n.crashed {
			err = ErrCrashed
		}
		n.mu.Unlock()
		return err
	}
	if n.pending[n.self] == nil {
		n.mu.Unlock()
		return fmt.Errorf("%w: epoch %d", ErrNotFlushed, n.epoch)
	}
	epoch := n.epoch

	n.ageSuspicionLocked()
	n.reconcileClaimsLocked()
	if n.recovering && n.view.fullyPlaced(n.cfg.Partitions) {
		// Every partition has been re-learned from the live primaries:
		// the reconciled view is now trustworthy and the node resumes
		// full participation. A durable node additionally re-injects the
		// data it recovered from disk (see rejoinReinjectLocked) — a
		// memory node recovered nothing, so this is a no-op for it.
		n.recovering = false
		n.rejoinReinjectLocked()
	}
	var ops []outOp
	if n.recovering {
		// Half-reconciled view: folding the stats keeps the tracker's
		// EWMA warm, but reseeding "lost" partitions or running the
		// policy on placements this node has not re-learned yet would
		// assert a stale world — skip both until the view is complete.
		_ = n.foldTrackerLocked()
	} else {
		n.adoptOrphansLocked()
		n.reseedLostLocked()
		demand := n.foldTrackerLocked()

		n.view.cluster.BeginEpoch()
		n.view.cluster.EndEpoch()
		ctx := &policy.Context{
			Epoch:           int(epoch),
			Cluster:         n.view.cluster,
			Tracker:         n.tracker,
			Router:          n.view.router,
			Ring:            n.view.ring,
			Demand:          demand,
			FailureRate:     n.cfg.FailureRate,
			MinAvailability: n.cfg.MinAvailability,
			MinReplicas:     n.view.minReplicas,
			HubCandidates:   n.cfg.HubCandidates,
			RNG:             n.rng.Stream(epoch),
		}
		dec := n.pol.Decide(ctx)
		ops = n.applyDecisionLocked(dec)
	}

	// Open anti-entropy sessions where the roots peers piggybacked on
	// this epoch's stats blobs disagree with this node's — before the
	// pending/nextPend swap discards them. The pump below runs them.
	n.aeSessionsLocked()
	n.pending, n.nextPend = n.nextPend, n.pending
	for i := range n.nextPend {
		n.nextPend[i] = nil
	}
	n.epoch++
	n.mu.Unlock()

	// Data movement happens outside the lock: the loopback transport
	// delivers synchronously, and the receiving node takes its own lock.
	n.sendOps(ops)
	// Then drive the transfer sessions — every replica ship and every
	// anti-entropy repair is one — a round (and age their leases). A
	// node with no sessions in flight sends nothing here.
	n.pumpTransfers()
	return nil
}

// rejoinReinjectLocked runs once, at the moment a restarted node's
// view completes: every partition whose recovered (non-resident) copy
// still has data is pushed back toward the cluster. EVERY current
// holder gets it through a transfer session that does NOT mark it
// resident there (it already is) — primary-only injection would leave
// the co-holders permanently divergent, since they serve reads locally
// and nothing re-ships a partition they already hold. Version-gated
// merge means recovered records only land where they are still the
// newest: an acked write whose whole holder set died thus survives the
// restart, while anything re-written since the reseed wins on version.
// A partition this node itself re-leads is simply re-adopted as
// authoritative. Callers hold n.mu (write mode); the sessions pump
// after the lock drops.
func (n *Node) rejoinReinjectLocked() {
	for p := 0; p < n.cfg.Partitions; p++ {
		part := n.store.Part(p)
		if st := part.Stats(); st.Resident || st.Keys == 0 {
			continue
		}
		if pr := n.view.primary(p); pr == n.self {
			if err := part.MergeSnapshot(nil); err != nil {
				continue // sticky engine failure; surfaced on the ack path
			}
			continue
		}
		for _, s := range n.view.cluster.ReplicaServers(p) {
			if int(s) != n.self {
				n.startTransferLocked(p, int(s), false)
			}
		}
	}
}

// ageSuspicionLocked updates per-peer failure suspicion from the stats
// that did (not) arrive this epoch. A peer silent for SuspectAfter
// consecutive epochs is presumed failed and leaves the view — feeding
// the eq. (14) availability bound exactly like a simulated failure —
// and rejoins when its stats reappear.
func (n *Node) ageSuspicionLocked() {
	for i := range n.cfg.Peers {
		if i == n.self {
			continue
		}
		if n.pending[i] != nil {
			n.missed[i] = 0
			if n.suspect[i] {
				n.suspect[i] = false
				n.view.recoverPeer(i)
			}
			continue
		}
		n.missed[i]++
		if n.missed[i] >= n.cfg.SuspectAfter && !n.suspect[i] {
			n.suspect[i] = true
			n.view.failPeer(i)
		}
	}
}

// reconcileClaimsLocked folds the primaries' placement claims into the
// view, in ascending claimant order for determinism. In a healthy
// lockstep cluster every claim is a no-op (all views already agree);
// after asymmetric suspicion or missed transfers the claims pull the
// views back together.
func (n *Node) reconcileClaimsLocked() {
	claimed := make([]bool, n.cfg.Partitions)
	for i := 0; i < len(n.cfg.Peers); i++ {
		blob := n.pending[i]
		if blob == nil {
			continue
		}
		for _, cl := range blob.claims {
			if cl.partition >= n.cfg.Partitions || cl.primary != i {
				continue // a claim is only authoritative from its primary
			}
			claimed[cl.partition] = true
			n.applyClaimLocked(&cl)
		}
	}
	for p := range claimed {
		if claimed[p] {
			n.orphaned[p] = 0
		} else {
			n.orphaned[p]++
		}
	}
}

// adoptOrphansLocked repairs claim-protocol deadlocks. Claims are only
// authoritative from a partition's primary, so after enough fault
// churn two holders can each believe the *other* is primary: neither
// claims the partition, the divergence never heals, and a recovering
// node waiting on that claim never completes its view. When no claim
// for a partition has arrived for SuspectAfter epochs, every node that
// believes it holds a copy asserts itself primary; the claims on the
// next flush re-anchor every view. Competing adoptions are safe:
// reconciliation applies claims in the same ascending claimant order
// everywhere, so all views converge on the same winner and the losers
// cede on the epoch after. (Adoption cannot be restricted to the
// lowest holder: with divergent views, the holder that looks lowest to
// everyone else may not list itself at all and would never step up.)
func (n *Node) adoptOrphansLocked() {
	for p := 0; p < n.cfg.Partitions; p++ {
		if n.orphaned[p] < n.cfg.SuspectAfter {
			continue
		}
		if c := n.view.cluster; c.HasReplica(p, cluster.ServerID(n.self)) {
			_ = c.SetPrimary(p, cluster.ServerID(n.self))
		}
	}
}

func (n *Node) applyClaimLocked(cl *placementClaim) {
	p := cl.partition
	c := n.view.cluster
	for _, s := range cl.replicas {
		if !c.HasReplica(p, cluster.ServerID(s)) && c.CanHost(p, cluster.ServerID(s)) {
			_ = c.AddReplica(p, cluster.ServerID(s))
		}
	}
	for _, s := range c.ReplicaServers(p) {
		if !slices.Contains(cl.replicas, int(s)) {
			_ = c.RemoveReplica(p, s) // refuses the last copy, which is what we want
		}
	}
	if c.HasReplica(p, cluster.ServerID(cl.primary)) {
		_ = c.SetPrimary(p, cluster.ServerID(cl.primary))
	}
}

// reseedLostLocked re-seeds partitions whose every holder vanished
// (archival restore, as in the simulator's mass-failure handling). The
// restored copy starts empty on the ring owner; empty is authoritative
// here — the data is gone cluster-wide — so the owner's store becomes
// resident again.
func (n *Node) reseedLostLocked() {
	for p := 0; p < n.cfg.Partitions; p++ {
		if n.view.primary(p) < 0 {
			_ = n.view.seedPartition(p)
			if n.view.hasReplica(p, n.self) {
				n.store.Part(p).ResetEmpty()
			}
		}
	}
}

// foldTrackerLocked assembles every partition's cluster-wide serve
// result from the collected stats and feeds the traffic tracker one
// epoch (eqs. 10–11). It returns the per-partition origin demand
// matrix for the policy context.
func (n *Node) foldTrackerLocked() *workload.Matrix {
	peers := len(n.cfg.Peers)
	demand := workload.NewMatrix(n.cfg.Partitions, peers)
	type agg struct {
		traffic  []int
		served   []int
		unserved int
		total    int
	}
	aggs := make([]agg, n.cfg.Partitions)
	counts := make([]int, 2*peers*len(aggs)) // every agg's two slices, carved from one array
	for p := range aggs {
		row := counts[2*peers*p:]
		aggs[p].traffic = row[:peers:peers]
		aggs[p].served = row[peers : 2*peers : 2*peers]
	}
	for i := 0; i < peers; i++ {
		blob := n.pending[i]
		if blob == nil {
			continue
		}
		for _, c := range blob.counters {
			a := &aggs[c.partition]
			a.traffic[i] += c.origin + c.transit
			a.served[i] += c.served
			a.unserved += c.overflow
			a.total += c.origin
			demand.Q[c.partition][i] += c.origin
		}
	}
	n.tracker.BeginEpoch()
	var res traffic.ServeResult
	for p := range aggs {
		primary := n.view.primary(p)
		if primary < 0 {
			continue
		}
		a := &aggs[p]
		res = traffic.ServeResult{
			TrafficByDC:  a.traffic,
			ServedByDC:   a.served,
			Unserved:     a.unserved,
			TotalQueries: a.total,
		}
		n.tracker.Observe(p, topology.DCID(primary), &res)
	}
	n.tracker.EndEpoch()
	return demand
}

// applyDecisionLocked executes the slice of the decision this node is
// responsible for: only the partition's primary applies structural
// actions — same bandwidth gating and failed-migration fallback as the
// simulator — opens the transfer sessions they imply and returns their
// drop orders.
// Non-primary nodes discard the decision and learn the outcome from
// the primary's next placement claim instead. The one-epoch metadata
// lag is deliberate: under message loss the per-node traffic trackers
// can drift apart, and if every node applied its own (now divergent)
// decision locally, a non-primary could re-add a replica every epoch
// that the primary's claim keeps removing — a permanent view
// oscillation. A single decision-maker per partition makes the claim
// authoritative by construction.
//
// Migrations never move the primary copy itself: the claim protocol
// has no atomic primaryship handoff (a node only claims partitions it
// already believes it leads), so moving it would leave an epoch where
// nobody claims the partition. A migration whose source is the primary
// keeps the source copy and degrades to a replication, exactly like
// the refused-removal fallback.
func (n *Node) applyDecisionLocked(dec policy.Decision) []outOp {
	c := n.view.cluster
	size := n.cfg.PartitionSize
	var ops []outOp

	// Every replica ship opens a transfer session, which RunEpoch pumps
	// after the lock drops; only drop orders travel as ops.
	dropOp := func(p, target int) outOp {
		return outOp{peer: target, msg: &transport.Message{
			Kind: KindDrop, Partition: uint32(p),
		}}
	}

	for _, rep := range dec.Replications {
		p, src, tgt := rep.Partition, rep.Source, rep.Target
		if n.view.primary(p) != n.self {
			continue // the primary executes; peers learn from its claim
		}
		if !c.HasReplica(p, src) || !c.CanHost(p, tgt) {
			continue
		}
		if !c.ConsumeReplicationBW(src, size) {
			continue
		}
		if c.AddReplica(p, tgt) != nil {
			continue
		}
		n.counts.Repl++
		if int(tgt) != n.self {
			n.startTransferLocked(p, int(tgt), true)
		}
	}
	for _, mig := range dec.Migrations {
		p, from, to := mig.Partition, mig.From, mig.To
		if n.view.primary(p) != n.self {
			continue
		}
		if !c.HasReplica(p, from) || !c.CanHost(p, to) {
			continue
		}
		if !c.ConsumeMigrationBW(from, size) {
			continue
		}
		if c.AddReplica(p, to) != nil {
			continue
		}
		if c.Primary(p) == from || c.RemoveReplica(p, from) != nil {
			// The source copy stays: either it is the primary copy
			// (never moved, see above) or the removal was refused. The
			// new copy exists and bandwidth was spent, which is
			// physically a replication (same accounting as the
			// simulator's half-completed move).
			n.counts.Repl++
			if int(to) != n.self {
				n.startTransferLocked(p, int(to), true)
			}
			continue
		}
		n.counts.Migr++
		if int(to) != n.self {
			n.startTransferLocked(p, int(to), true)
		}
		// The source is never this node: this node is the primary, and a
		// migration away from the primary degraded to a replication above.
		ops = append(ops, dropOp(p, int(from)))
	}
	for _, sui := range dec.Suicides {
		p, s := sui.Partition, sui.Server
		if n.view.primary(p) != n.self {
			continue
		}
		if c.Primary(p) == s {
			continue // the primary never suicides
		}
		if c.RemoveReplica(p, s) != nil {
			continue
		}
		n.counts.Suicide++
		if int(s) == n.self {
			n.store.Part(p).Drop()
		} else {
			ops = append(ops, dropOp(p, int(s)))
		}
	}
	return ops
}

// --- Introspection --------------------------------------------------

// PartitionInfo is one partition's placement and data summary in a
// DumpInfo.
type PartitionInfo struct {
	Partition int   `json:"partition"`
	Primary   int   `json:"primary"`
	Replicas  []int `json:"replicas"`
	Keys      int   `json:"keys"`
	Bytes     int   `json:"bytes"`
	Resident  bool  `json:"resident"`
	// WAL depth and compaction count of the durable engine's partition
	// log; zero in memory mode.
	WALRecords  int `json:"wal_records,omitempty"`
	Compactions int `json:"compactions,omitempty"`
}

// DumpInfo is a node's introspection snapshot, served to rfhctl as
// JSON via KindDump.
type DumpInfo struct {
	ID          int             `json:"id"`
	Self        int             `json:"self"`
	Epoch       uint64          `json:"epoch"`
	MinReplicas int             `json:"min_replicas"`
	WriteQuorum int             `json:"write_quorum"`
	ReadQuorum  int             `json:"read_quorum"`
	SyncFails   int64           `json:"sync_fails,omitempty"`
	Durable     bool            `json:"durable"`
	Transfers   TransferStats   `json:"transfers"`
	AntiEntropy AEStats         `json:"anti_entropy"`
	Decisions   DecisionCounts  `json:"decisions"`
	Suspected   []int           `json:"suspected,omitempty"`
	Partitions  []PartitionInfo `json:"partitions"`
}

// Dump returns the node's current placement, data and decision state.
func (n *Node) Dump() DumpInfo {
	n.mu.RLock()
	defer n.mu.RUnlock()
	d := DumpInfo{
		ID:          n.cfg.ID,
		Self:        n.self,
		Epoch:       n.epoch,
		MinReplicas: n.view.minReplicas,
		WriteQuorum: n.cfg.WriteQuorum,
		ReadQuorum:  n.cfg.ReadQuorum,
		SyncFails:   n.syncFails.Load(),
		Durable:     n.cfg.DataDir != "",
		Transfers:   n.TransferStats(),
		AntiEntropy: n.AEStats(),
		Decisions:   n.counts,
	}
	for i, s := range n.suspect {
		if s {
			d.Suspected = append(d.Suspected, i)
		}
	}
	for p := 0; p < n.cfg.Partitions; p++ {
		st := n.store.Part(p).Stats()
		info := PartitionInfo{
			Partition:   p,
			Primary:     n.view.primary(p),
			Keys:        st.Keys,
			Bytes:       st.Bytes,
			Resident:    st.Resident,
			WALRecords:  st.WALRecords,
			Compactions: st.Compactions,
		}
		for _, s := range n.view.cluster.ReplicaServers(p) {
			info.Replicas = append(info.Replicas, int(s))
		}
		d.Partitions = append(d.Partitions, info)
	}
	return d
}

func (n *Node) handleDump() (*transport.Message, error) {
	d := n.Dump()
	buf, err := json.Marshal(d)
	if err != nil {
		return nil, err
	}
	return &transport.Message{Kind: KindDump, Value: buf}, nil
}

// LocalGet reads a key from this node's local store only — no
// routing, no traffic accounting, no capacity charge. It ignores
// whether the view says this node holds the partition, so invariant
// checkers can ask "which live processes physically have this value"
// independently of placement metadata. A crashed node has no store.
func (n *Node) LocalGet(key string) ([]byte, bool) {
	v, _, ok := n.LocalVersion(key)
	return v, ok
}

// LocalVersion is LocalGet including the stored version stamp — what
// quorum-read tests and invariant checkers use to rank the physical
// copies of a key across nodes.
func (n *Node) LocalVersion(key string) ([]byte, uint64, bool) {
	p := n.PartitionOf(key)
	n.mu.RLock()
	defer n.mu.RUnlock()
	if n.closed || n.crashed {
		return nil, 0, false
	}
	v, ver, ok, _ := n.store.Part(p).Get(key)
	return v, ver, ok
}

// ReplicaMap returns every partition's sorted holder set — the
// determinism tests compare these across nodes and across runs.
func (n *Node) ReplicaMap() [][]int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([][]int, n.cfg.Partitions)
	for p := range out {
		for _, s := range n.view.cluster.ReplicaServers(p) {
			out[p] = append(out[p], int(s))
		}
	}
	return out
}

// Primaries returns every partition's primary roster index.
func (n *Node) Primaries() []int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]int, n.cfg.Partitions)
	for p := range out {
		out[p] = n.view.primary(p)
	}
	return out
}

// ReplicaCount returns the number of holders of partition p.
func (n *Node) ReplicaCount(p int) int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.view.cluster.ReplicaCount(p)
}
