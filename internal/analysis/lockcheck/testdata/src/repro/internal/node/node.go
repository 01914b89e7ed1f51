// Package node exercises lockcheck: sends under a held mutex, double
// locks, unbalanced early returns, requires-unlocked annotations, and
// the negative patterns (balanced manual unlocks, deferred unlocks,
// partition locks under the node lock) that must stay silent.
package node

import (
	"sync"

	"repro/internal/transport"
)

// Node mirrors the real node's locking shape. Mu is exported so the
// chaos fixture can hold a node lock across a call — the real module
// only does that from the node package's own tests, but the
// cross-package rebasing ("n.Mu" in the callee's annotation matching
// "nd.Mu" at the importer's call site) needs a lock an importer can
// reach.
type Node struct {
	mu     sync.RWMutex
	Mu     sync.RWMutex
	closed bool
	tr     transport.Transport
	shards []partition
}

// partition mirrors durable.Partition: the state machine owns its
// mutex and every operation is a method on it, so the lock is
// receiver-rooted ("pt.mu") and the acquires facts follow it through
// calls — inside the package and, rebased through the call-site
// receiver, from the node.
type partition struct {
	mu   sync.Mutex
	data map[string][]byte
}

// commit is the locked-callee shape: it assumes pt.mu and takes
// nothing.
func (pt *partition) commit(key string, v []byte) { pt.data[key] = v }

func (pt *partition) put(key string, v []byte) {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	pt.commit(key, v)
}

func (pt *partition) len() int {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	return len(pt.data)
}

// putCounting re-enters the partition lock through a sibling method.
func (pt *partition) putCounting(key string, v []byte) int {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	pt.commit(key, v)
	return pt.len() // want `call to len, which acquires pt\.mu, while pt\.mu may already be held`
}

// --- Send-under-lock ------------------------------------------------

func (n *Node) sendUnderLock(addr string) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	n.tr.Send(addr, &transport.Message{}) // want `network send while n\.mu is held`
}

// broadcast reaches Send one call deep; holding the lock across it is
// flagged through the intra-package may-send propagation.
func (n *Node) broadcast(addrs []string) {
	for _, a := range addrs {
		n.tr.Send(a, &transport.Message{})
	}
}

func (n *Node) flushUnderLock(addrs []string) {
	n.mu.Lock()
	n.broadcast(addrs) // want `call to broadcast may perform a network send while n\.mu is held`
	n.mu.Unlock()
}

// flushClean is the contract-conforming shape: snapshot under the
// lock, send after releasing it.
func (n *Node) flushClean(addrs []string) {
	n.mu.Lock()
	targets := append([]string(nil), addrs...)
	n.mu.Unlock()
	n.broadcast(targets)
}

// sendSuppressed pins the suppression path: the finding exists but the
// reasoned directive silences it.
func (n *Node) sendSuppressed(addr string) {
	n.mu.RLock()
	//lint:ignore rfhlint/lockcheck fixture: deliberate send under lock
	n.tr.Send(addr, &transport.Message{})
	n.mu.RUnlock()
}

// --- requires-unlocked ----------------------------------------------

// syncWrite pushes a write to the other holders.
//
//lint:requires-unlocked n.mu
func (n *Node) syncWrite(addr string) {
	n.tr.Send(addr, &transport.Message{})
}

func (n *Node) putHoldingLock(addr string) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	n.syncWrite(addr) // want `requires n\.mu unlocked` `network send while n\.mu is held`
}

func (n *Node) putClean(addr string) {
	n.mu.RLock()
	n.mu.RUnlock()
	n.syncWrite(addr)
}

// --- Double lock ----------------------------------------------------

func (n *Node) doubleLock() {
	n.mu.Lock()
	n.mu.Lock() // want `Lock of n\.mu, which may already be held`
	n.mu.Unlock()
	n.mu.Unlock() // want `Unlock of n\.mu, which is not locked at this point`
}

func (n *Node) recursiveRead() int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.lockedLen() // want `call to lockedLen, which acquires n\.mu, while n\.mu may already be held`
}

// lockedLen acquires the receiver lock itself; callers already holding
// it deadlock.
func (n *Node) lockedLen() int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return len(n.shards)
}

// --- Lock/unlock pairing --------------------------------------------

func (n *Node) leakOnEarlyReturn(fail bool) error {
	n.mu.Lock()
	if fail {
		return errFailed // want `return with n\.mu still locked`
	}
	n.mu.Unlock()
	return nil
}

func (n *Node) wrongMode() {
	n.mu.RLock()
	n.mu.Unlock() // want `Unlock of n\.mu, which is held in read mode`
}

// balancedEarlyReturns is the real node's routeGet shape: a manual
// RUnlock on every early-return path. It must stay silent.
func (n *Node) balancedEarlyReturns(p int, addr string) ([]byte, error) {
	n.mu.RLock()
	if n.closed {
		n.mu.RUnlock()
		return nil, errFailed
	}
	if p >= len(n.shards) {
		n.mu.RUnlock()
		return nil, errFailed
	}
	n.mu.RUnlock()
	resp, err := n.tr.Send(addr, &transport.Message{})
	if err != nil {
		return nil, err
	}
	return resp.Value, nil
}

// partitionUnderNodeLock pins the allowed hierarchy: a partition
// operation (which takes and releases the partition's own lock) called
// while the node lock is held. The callee's ".mu" rebases onto the
// partition expression, not onto n, so this is no double-lock.
func (n *Node) partitionUnderNodeLock(p int, key string, v []byte) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	n.shards[p].put(key, v)
}

// workerPool pins the funclit rule: goroutine bodies run under their
// own lock state, so a local mutex inside one is not confused with the
// spawner's locks.
func (n *Node) workerPool(addrs []string) int {
	var mu sync.Mutex
	var done int
	var wg sync.WaitGroup
	for _, a := range addrs {
		wg.Add(1)
		go func(a string) {
			defer wg.Done()
			if _, err := n.tr.Send(a, &transport.Message{}); err == nil {
				mu.Lock()
				done++
				mu.Unlock()
			}
		}(a)
	}
	wg.Wait()
	return done
}

// --- Exported surface for the cross-package fixture -----------------

// Step runs one epoch step, reaching Send two frames down; importers
// see it as may-send through the exported fact.
func (n *Node) Step(addr string) {
	n.broadcast([]string{addr})
}

// SyncWrite is the exported annotated send: the requires-unlocked fact
// crosses the package boundary with it.
//
//lint:requires-unlocked n.Mu
func (n *Node) SyncWrite(addr string) {
	n.tr.Send(addr, &transport.Message{})
}

var errFailed = &nodeError{}

type nodeError struct{}

func (*nodeError) Error() string { return "failed" }
