// Package durable is the node's partition state machine and its disk
// persistence. Each Partition holds the ONE copy of a partition's state —
// the entry map, the maxVer watermark, the residency flag, the inbound
// transfer sessions and done-list, the compaction holds and the live
// anti-entropy tree — behind one mutex, and changes it through exactly
// one function, apply(record). The live write path appends the record to
// the partition's write-ahead log, makes it durable, and only then
// applies it; WAL replay and snapshot load feed the same apply. So what
// a holder recovers is what it acked by construction: state is whatever
// replaying the log produces, and PutQuorum's "ack #1 = durable local
// apply" is one code path, not a convention between two copies.
//
// Memory mode (Options.Dir == "") is the same machine with no log: no
// files, no record encoding, every other line shared.
//
// Physical syncing hides behind the Syncer interface, the same
// pattern as node.Clock: live deployments run OSSync (fsync after
// every append and around compaction renames), while deterministic
// harnesses run NoSync and rely on the OS page cache — crash
// *simulation* closes file handles without killing the process, so
// unsynced pages survive exactly like a process crash on real
// hardware.
//
// The package obeys the determinism contract (rfhlint allowlist): no
// wall clock, no unseeded randomness, and every map iteration happens
// behind a sort.
package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
)

// Syncer is the physical-durability knob: it is invoked with every
// file whose contents must survive a machine crash before the engine
// reports an append or compaction as durable. It mirrors node.Clock —
// the one OS effect the deterministic harnesses must be able to stub.
type Syncer interface {
	Sync(f *os.File) error
}

// OSSync fsyncs for real — the live-deployment Syncer.
type OSSync struct{}

// Sync flushes f's dirty pages to stable storage.
func (OSSync) Sync(f *os.File) error { return f.Sync() }

// NoSync skips fsync: writes still land in the OS page cache, so data
// survives process crashes (which is all the chaos harness simulates)
// but not machine crashes. Simulation mode.
type NoSync struct{}

// Sync does nothing.
func (NoSync) Sync(f *os.File) error { return nil }

// Options configures an Engine.
type Options struct {
	// Dir is the node's data directory; the engine owns it exclusively.
	// Empty means memory mode: the same machine with no log.
	Dir string
	// Partitions is the partition count; must match the node config.
	Partitions int
	// Sync is the physical-durability policy (nil means NoSync).
	Sync Syncer
	// CompactEvery folds the WAL into a snapshot once a partition has
	// accumulated that many records (0 normalises to 1024).
	CompactEvery int
}

// Engine is one node's set of partition state machines plus what they
// share: the data directory, the Syncer, the boot generation and the
// fail-stop latch. All methods are safe for concurrent use, and
// different partitions share no lock — the latch is read atomically.
type Engine struct {
	opts  Options
	parts []Partition
	gen   uint64 // boot generation: bumped and persisted once per Open

	// failure is the sticky latch: the first IO error any append or
	// compaction hit. Once set, every mutation refuses — the node keeps
	// reading its state but stops acking. First error wins.
	failure atomic.Pointer[error]
	closed  atomic.Bool
}

var errClosed = errors.New("durable: engine closed")

// Open creates or recovers an engine. With opts.Dir empty it is a
// memory-mode engine: every partition starts at its birth state and
// nothing touches disk. Otherwise, for every partition it loads the
// snapshot (if any), replays the WAL on top — truncating a torn final
// record — and keeps the WAL open for appends. Leftover *.tmp files
// from an interrupted compaction are removed; a snapshot is only ever
// installed by an atomic rename, so a crash between the rename and the
// WAL truncation simply replays the whole WAL over the new snapshot,
// which converges to the same state (every WAL op is a blind
// last-writer-wins set, so re-applying a suffix that the snapshot
// already folded in is a no-op).
func Open(opts Options) (*Engine, error) {
	if opts.Partitions <= 0 {
		return nil, fmt.Errorf("durable: partitions must be positive, got %d", opts.Partitions)
	}
	if opts.Sync == nil {
		opts.Sync = NoSync{}
	}
	if opts.CompactEvery <= 0 {
		opts.CompactEvery = 1024
	}
	e := &Engine{opts: opts, parts: make([]Partition, opts.Partitions)}
	for p := range e.parts {
		e.parts[p].init(e, p)
	}
	if opts.Dir == "" {
		return e, nil
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	if err := e.bumpGeneration(); err != nil {
		return nil, err
	}
	for p := range e.parts {
		if err := e.parts[p].recover(); err != nil {
			_ = e.Close() // the recovery error is the one worth reporting
			return nil, err
		}
	}
	return e, nil
}

// bumpGeneration increments and persists the data dir's boot
// generation — a counter that distinguishes every Open of the same
// directory. Nodes fold it into outbound transfer-session ids so a
// restarted process never re-issues an id an earlier boot already
// used: targets durably remember completed session ids, and a reused
// id would be answered "already complete" without any data moving.
// The write is temp-file + atomic rename; a crash before the rename
// re-derives the same value next boot, which is safe because the
// interrupted Open never handed the generation to a running node.
func (e *Engine) bumpGeneration() error {
	path := filepath.Join(e.opts.Dir, "gen")
	buf, err := os.ReadFile(path)
	switch {
	case os.IsNotExist(err):
	case err != nil:
		return fmt.Errorf("durable: generation read: %w", err)
	case len(buf) != 8:
		return fmt.Errorf("durable: generation file %s malformed (%d bytes)", path, len(buf))
	default:
		e.gen = binary.LittleEndian.Uint64(buf)
	}
	e.gen++
	if err := writeFileAtomic(path, binary.LittleEndian.AppendUint64(nil, e.gen), e.opts.Sync); err != nil {
		return fmt.Errorf("durable: generation write: %w", err)
	}
	if err := e.syncDir(); err != nil {
		return fmt.Errorf("durable: generation dir sync: %w", err)
	}
	return nil
}

// writeFileAtomic installs data at path all-or-nothing: a temp file is
// written, synced and closed, then renamed into place. The caller
// syncs the directory to make the rename itself durable.
func writeFileAtomic(path string, data []byte, sync Syncer) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		_ = f.Close()
		return err
	}
	if err := sync.Sync(f); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// Generation returns the data dir's boot generation: how many times
// this directory has been Opened, this boot included (0 in memory
// mode). It is fixed for the engine's lifetime.
func (e *Engine) Generation() uint64 { return e.gen }

func (e *Engine) walPath(p int) string {
	return filepath.Join(e.opts.Dir, fmt.Sprintf("p%04d.wal", p))
}

func (e *Engine) snapPath(p int) string {
	return filepath.Join(e.opts.Dir, fmt.Sprintf("p%04d.snap", p))
}

// Part returns partition p's state machine.
func (e *Engine) Part(p int) *Partition { return &e.parts[p] }

// Recovered returns partition p's full state: what recovery restored
// plus every record committed since.
func (e *Engine) Recovered(p int) PartitionState { return e.parts[p].State() }

// AppendPut commits one blind value install: data[key] = {ver, val}
// and maxVer = max(maxVer, ver), with no version gate and no residency
// check. The engine keeps val by reference and never mutates it;
// callers must not either.
func (e *Engine) AppendPut(p int, key string, ver uint64, val []byte) error {
	pt := &e.parts[p]
	pt.mu.Lock()
	defer pt.mu.Unlock()
	return pt.commit(&record{op: opPut, key: key, ver: ver, val: val})
}

// Err returns the engine's sticky failure, if any: the first IO error
// any append or compaction hit. Once set, every mutation refuses — the
// node keeps running but stops claiming durability.
func (e *Engine) Err() error {
	if p := e.failure.Load(); p != nil {
		return *p
	}
	return nil
}

func (e *Engine) fail(err error) error {
	e.failure.CompareAndSwap(nil, &err)
	return err
}

// failed is the hot-path latch check: two atomic loads, no lock shared
// between partitions.
func (e *Engine) failed() error {
	if e.closed.Load() {
		return errClosed
	}
	return e.Err()
}

// Compact folds partition p's WAL into its snapshot immediately,
// regardless of the record threshold (holds still defer). Tests and
// shutdown paths use it; steady-state compaction happens automatically
// via CompactEvery. A memory-mode engine has nothing to fold.
func (e *Engine) Compact(p int) error {
	if err := e.failed(); err != nil {
		return err
	}
	pt := &e.parts[p]
	pt.mu.Lock()
	defer pt.mu.Unlock()
	if pt.wal == nil {
		return nil
	}
	return pt.compactUnlessHeld()
}

// syncDir makes a snapshot rename durable (directory metadata).
func (e *Engine) syncDir() error {
	if _, ok := e.opts.Sync.(NoSync); ok {
		return nil
	}
	d, err := os.Open(e.opts.Dir)
	if err != nil {
		return err
	}
	serr := e.opts.Sync.Sync(d)
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// Close latches the engine closed — every later mutation refuses — and
// releases every file handle. It does NOT compact: recovery must work
// from whatever snapshot+WAL pair is on disk at any instant, and a
// shutdown that exercised that path is a shutdown that proved it.
// Close after Close (or after a crash-simulation close) is a no-op.
func (e *Engine) Close() error {
	if e.closed.Swap(true) {
		return nil
	}
	var first error
	for p := range e.parts {
		pt := &e.parts[p]
		pt.mu.Lock()
		if pt.wal != nil {
			if err := pt.wal.Close(); err != nil && first == nil {
				first = err
			}
			pt.wal = nil
		}
		pt.mu.Unlock()
	}
	return first
}
