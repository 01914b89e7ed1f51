package chaos

import (
	"fmt"
	"strings"

	"repro/internal/histcheck"
	"repro/internal/metrics"
	"repro/internal/node"
	"repro/internal/stats"
	"repro/internal/transport"
)

// Scenario phases.
const (
	phaseWarm = iota
	phaseFault
	phaseCool
)

var phaseNames = [...]string{"warm", "fault", "cool"}

// suspectAfter is the missed-epoch count after which the runtime drops
// a silent peer. The plan's crash durations are derived from it so the
// fleet always detects a crash before the victim returns.
const suspectAfter = 2

// Result is the outcome of one chaos scenario.
type Result struct {
	Seed       uint64
	Epochs     int
	Acked      int // acknowledged writes
	PutErrs    int // refused/unreachable writes (not acked, not lost)
	ReadOK     int
	ReadErrs   int
	Faults     metrics.FaultCounts
	Violations []Violation
	// Transfers aggregates every node's transfer-session counters over
	// the whole run.
	Transfers node.TransferStats
	// History is the complete recorded operation history the checkers
	// judged: every workload put and get with interval timestamps,
	// version stamps and binding/relaxed marks, a reset wherever the
	// environment legally destroyed a key, and the quiescent
	// durability reads. Recorded even with Check "off".
	History    []histcheck.Op
	Trajectory string // deterministic per-epoch dump; bit-identical per seed
}

// Passed reports whether the run upheld every invariant.
func (r *Result) Passed() bool { return len(r.Violations) == 0 }

// delayedMsg is a message the fault layer pulled out of an epoch; the
// harness re-delivers it at the next epoch boundary through the
// sender's inner (un-faulted) endpoint.
type delayedMsg struct {
	from int
	to   string
	msg  *transport.Message
}

// harness wires one scenario together: the fleet under test, the
// fault schedule, the per-message fault decider state, the workload
// history and the trajectory dump.
type harness struct {
	opts    Options
	plan    *plan
	fleet   *node.Fleet
	members []*node.Node          // stable per-slot handles; fleet.Alive gates use
	inner   []transport.Transport // raw loopback endpoints, for delayed re-delivery

	msgRNG  *stats.RNG
	phase   int
	cut     [][]int // directed link cut counters [from][to]
	delayed []delayedMsg

	hist   *history
	faults metrics.FaultCounts
	viols  []Violation
	traj   strings.Builder

	// steadyStreak counts consecutive epochs in which every node was
	// alive and none was recovering. The per-epoch staleness check only
	// binds after a full steady epoch of claim exchange; mid-fault and
	// mid-recovery reads can legitimately route through stale views, and
	// the quiescence checks judge those windows instead.
	steadyStreak int

	acked, putErrs, readOK, readErrs int
}

// Run executes one seeded chaos scenario end to end and reports the
// invariant verdict. The same Options always produce the same Result,
// byte-identical trajectory included.
func Run(opts Options) (*Result, error) {
	if err := validate(&opts); err != nil {
		return nil, err
	}
	h := &harness{
		opts:   opts,
		plan:   buildPlan(&opts),
		inner:  make([]transport.Transport, opts.Nodes),
		msgRNG: stats.NewRNG(opts.Seed ^ 0xFA017),
		cut:    make([][]int, opts.Nodes),
		hist:   newHistory(&opts),
	}
	for i := range h.cut {
		h.cut[i] = make([]int, opts.Nodes)
	}
	cfg := node.DefaultConfig(0, nil)
	cfg.Partitions = opts.Partitions
	cfg.ReplicaCapacity = 8
	cfg.SuspectAfter = suspectAfter
	cfg.Seed = opts.Seed
	cfg.WriteQuorum = opts.WriteQuorum
	cfg.ReadQuorum = opts.ReadQuorum
	if opts.DataDir != "" {
		cfg.DataDir = opts.DataDir   // the fleet adds per-node subdirectories
		cfg.Fsync = false            // surviving Crash/Restart, not power cuts
		cfg.WALCompactEvery = 16     // compact constantly under the tiny workload
		cfg.TransferChunkEntries = 1 // a ship of more than one key is multi-chunk
		// Anti-entropy runs only in durable mode: the digest sweep
		// would add sends (and fault-RNG draws) to every memory-mode
		// epoch, and memory mode keeps the smaller message mix.
		cfg.AEInterval = 4
	}
	fleet, err := node.NewFleetWrapped(opts.Nodes, cfg, func(i int, tr transport.Transport) transport.Transport {
		h.inner[i] = tr
		return transport.NewFault(tr, h.deciderFor(i))
	})
	if err != nil {
		return nil, err
	}
	h.fleet = fleet
	defer fleet.Close()
	h.members = make([]*node.Node, opts.Nodes)
	for i := range h.members {
		h.members[i] = fleet.Node(i) // the fleet owns and closes the nodes
	}

	fmt.Fprintf(&h.traj, "chaos seed=0x%x nodes=%d partitions=%d keys=%d w=%d r=%d warm=%d fault=%d cool=%d\n",
		opts.Seed, opts.Nodes, opts.Partitions, opts.KeysPerPartition,
		opts.WriteQuorum, opts.ReadQuorum,
		opts.WarmEpochs, opts.FaultEpochs, opts.CoolEpochs)
	if opts.DataDir != "" {
		h.traj.WriteString("durable fsync=0 compact_every=16 chunked=1 ae=4\n")
	}

	for e := 0; e < opts.Epochs(); e++ {
		if err := h.stepEpoch(e); err != nil {
			return nil, err
		}
	}
	h.finalChecks()
	var xfer node.TransferStats
	var aePayload int64
	for _, nd := range h.members {
		st := nd.TransferStats()
		xfer.Started += st.Started
		xfer.Completed += st.Completed
		xfer.Expired += st.Expired
		xfer.Resumed += st.Resumed
		xfer.ChunksSent += st.ChunksSent
		xfer.DeltaSessions += st.DeltaSessions
		xfer.FullSessions += st.FullSessions
		xfer.BytesSent += st.BytesSent
		xfer.BytesSaved += st.BytesSaved
		aePayload += nd.AEStats().PayloadBytes
	}
	fmt.Fprintf(&h.traj, "transfers started=%d completed=%d expired=%d resumed=%d chunks=%d delta=%d full=%d bytes=%d saved=%d ae_payload=%d\n",
		xfer.Started, xfer.Completed, xfer.Expired, xfer.Resumed, xfer.ChunksSent,
		xfer.DeltaSessions, xfer.FullSessions, xfer.BytesSent, xfer.BytesSaved, aePayload)
	fmt.Fprintf(&h.traj, "faults %s\n", h.faults.String())
	fmt.Fprintf(&h.traj, "excused=%d\n", h.hist.excusedCount())
	for i := range h.viols {
		fmt.Fprintf(&h.traj, "VIOLATION %s\n", h.viols[i].String())
	}

	return &Result{
		Seed:       opts.Seed,
		Epochs:     opts.Epochs(),
		Acked:      h.acked,
		PutErrs:    h.putErrs,
		ReadOK:     h.readOK,
		ReadErrs:   h.readErrs,
		Faults:     h.faults,
		Violations: h.viols,
		Transfers:  xfer,
		History:    h.hist.ops,
		Trajectory: h.traj.String(),
	}, nil
}

// validate rejects option shapes the harness cannot drive.
func validate(o *Options) error {
	switch {
	case o.Nodes < 3:
		return fmt.Errorf("chaos: need at least 3 nodes, got %d", o.Nodes)
	case o.Partitions < 1 || o.KeysPerPartition < 1:
		return fmt.Errorf("chaos: need at least one partition and key")
	case o.WarmEpochs < 1 || o.CoolEpochs < 1:
		return fmt.Errorf("chaos: warm and cool windows must be at least 1 epoch")
	case o.DropRate < 0 || o.DupRate < 0 || o.DelayRate < 0 ||
		o.DropRate+o.DupRate+o.DelayRate > 1:
		return fmt.Errorf("chaos: message fault rates must be non-negative and sum to at most 1")
	case o.Check != "" && o.Check != "linearizable" && o.Check != "sessions" && o.Check != "off":
		return fmt.Errorf("chaos: unknown check mode %q (want linearizable, sessions or off)", o.Check)
	}
	return nil
}

// stepEpoch runs one full epoch: re-deliver delayed messages, apply
// the scheduled fault transitions, tick the fleet, drive the client
// workload, and check the per-epoch invariants.
func (h *harness) stepEpoch(e int) error {
	switch {
	case e < h.opts.WarmEpochs:
		h.phase = phaseWarm
	case e < h.opts.WarmEpochs+h.opts.FaultEpochs:
		h.phase = phaseFault
	default:
		h.phase = phaseCool
	}

	h.flushDelayed()
	if err := h.applyEvents(e); err != nil {
		return err
	}
	h.scanLostHolders(e)

	if err := h.fleet.Tick(); err != nil {
		return fmt.Errorf("chaos: epoch %d: %w", e, err)
	}
	if h.steady() {
		h.steadyStreak++
	} else {
		h.steadyStreak = 0
	}
	acks, perr, rok, rerr := h.workload(e)
	h.checkCeiling(e)

	ref := h.members[h.refIdx()]
	fmt.Fprintf(&h.traj, "e=%03d ph=%s acks=%d perr=%d rok=%d rerr=%d alive=%d prim=%v cnt=%v\n",
		e, phaseNames[h.phase], acks, perr, rok, rerr,
		h.fleet.NumAlive(), ref.Primaries(), h.replicaCounts(ref))
	return nil
}

// flushDelayed re-delivers every message the fault layer deferred,
// through the sender's inner endpoint so the delivery itself cannot be
// re-faulted. Targets that crashed in the meantime just lose the
// message (it was already counted as a delay fault).
func (h *harness) flushDelayed() {
	for i := range h.delayed {
		d := &h.delayed[i]
		if resp, err := h.inner[d.from].Send(d.to, d.msg); err == nil {
			//lint:ignore rfhlint/errsink delayed re-delivery is fire-and-forget: the sender already saw the original attempt fail, a reply error here has no consumer
			_ = resp.Err()
		}
	}
	h.delayed = h.delayed[:0]
}

// applyEvents executes the plan's fault transitions for the epoch.
func (h *harness) applyEvents(e int) error {
	for _, ev := range h.plan.events[e] {
		switch ev.kind {
		case evCrash:
			h.fleet.Crash(ev.a)
			h.faults.Crash()
			h.trace(e, "crash node=%d", ev.a)
			h.excuseCrashLosses(e, ev.a)
		case evRestart:
			if err := h.fleet.Restart(ev.a); err != nil {
				return fmt.Errorf("chaos: epoch %d: %w", e, err)
			}
			h.faults.Restart()
			h.trace(e, "restart node=%d", ev.a)
		case evCut:
			h.cut[ev.a][ev.b]++
			h.faults.Cut(1)
			h.trace(e, "cut %d->%d", ev.a, ev.b)
		case evUncut:
			h.cut[ev.a][ev.b]--
			h.trace(e, "heal %d->%d", ev.a, ev.b)
		}
	}
	return nil
}

// trace emits one verbose trajectory line.
func (h *harness) trace(e int, format string, args ...any) {
	if !h.opts.Verbose {
		return
	}
	fmt.Fprintf(&h.traj, "  e=%03d "+format+"\n", append([]any{e}, args...)...)
}

// excuse marks one record's current acked write as legally lost,
// recording the reason. The excuse clears on the key's next
// acknowledged put — a fresh quorum ack re-arms the strict checks.
// The op history gets a reset at the same instant: the environment
// destroyed every copy, so the register legitimately became absent and
// older observations stop binding the history checkers.
func (h *harness) excuse(e int, rec *keyRecord, format string, args ...any) {
	if rec.excused || rec.lastAcked == "" {
		return
	}
	rec.excused = true
	rec.excuseWhy = fmt.Sprintf(format, args...)
	h.hist.record(histcheck.Op{Kind: histcheck.OpReset, Key: rec.key, Epoch: e})
	h.trace(e, "excuse key=%s: %s", rec.key, rec.excuseWhy)
}

// excuseCrashLosses runs the instant a node crashes: any acked write
// whose last live copy just died with the victim is legally lost. The
// scan checks actual bytes on live nodes, not placement metadata —
// with W ≥ 2 it fires only when background data movement (a dropped
// snapshot to a new holder, a migration away from an ack-set member)
// had already degraded the write down to a single physical copy before
// the crash took that copy too.
func (h *harness) excuseCrashLosses(e, victim int) {
	for r := range h.hist.recs {
		rec := &h.hist.recs[r]
		if rec.lastAcked == "" || rec.excused {
			continue
		}
		if !h.storedSomewhere(rec) {
			h.excuse(e, rec, "crash of node %d left no live copy at epoch %d", victim, e)
		}
	}
}

// scanLostHolders excuses the records of partitions whose every view
// holder is down this instant: their data survives nowhere, so the
// epoch's reseed will restore them empty (archival restore) and the
// acked writes are legally lost. Together with excuseCrashLosses this
// is the only excusal left — message faults never excuse anything.
func (h *harness) scanLostHolders(e int) {
	rm := h.members[h.refIdx()].ReplicaMap()
	for p := range rm {
		anyAlive := false
		for _, s := range rm[p] {
			if h.fleet.Alive(s) {
				anyAlive = true
				break
			}
		}
		if anyAlive {
			continue
		}
		for k := 0; k < h.opts.KeysPerPartition; k++ {
			h.excuse(e, h.hist.rec(p, k), "all holders of partition %d down at epoch %d", p, e)
		}
	}
}

// steady reports whether the fleet is whole this instant: every node
// alive and none still rebuilding after a restart.
func (h *harness) steady() bool {
	for i := 0; i < h.fleet.Len(); i++ {
		if !h.fleet.Alive(i) || h.members[i].Recovering() {
			return false
		}
	}
	return true
}

// refIdx returns the lowest-index live node — the observer for all
// per-epoch checks and trajectory lines.
func (h *harness) refIdx() int {
	for i := 0; i < h.fleet.Len(); i++ {
		if h.fleet.Alive(i) {
			return i
		}
	}
	return 0 // unreachable: node 0 is never crashed
}

// replicaCounts snapshots the per-partition holder counts of a view.
func (h *harness) replicaCounts(nd *node.Node) []int {
	out := make([]int, h.opts.Partitions)
	for p := range out {
		out[p] = nd.ReplicaCount(p)
	}
	return out
}

// aliveEntry returns the index of the first live node at or after
// rotation index i, spreading workload entry points across the fleet
// deterministically.
func (h *harness) aliveEntry(i int) int {
	n := h.fleet.Len()
	for k := 0; k < n; k++ {
		if idx := (i + k) % n; h.fleet.Alive(idx) {
			return idx
		}
	}
	return 0
}

// workload drives one epoch of client traffic: one quorum put and one
// quorum get per key, entering the cluster at rotating nodes. A put is
// recorded only when the write quorum acked it — the receipt's version
// and ack set are the ground truth the durability checker holds the
// cluster to — and an ack clears any standing excusal for the key.
// Reads are checked for staleness on the spot (steady clean epochs,
// un-excused records only).
//
// Every op also joins the full history, invocation and response: puts
// with their stamped version and ack verdict (a failed put stays in as
// an optional op — its ack may have been lost after the primary
// committed), gets with the served value/version. A get taken outside
// the staleness gate is marked Relaxed: mid-fault and mid-recovery
// reads may legitimately route through stale views, so only the gated
// reads bind the linearizability and session checkers.
func (h *harness) workload(e int) (acks, perr, rok, rerr int) {
	for p := 0; p < h.opts.Partitions; p++ {
		for k := 0; k < h.opts.KeysPerPartition; k++ {
			rec := h.hist.rec(p, k)
			val := fmt.Sprintf("s%x.e%d.p%d.k%d", h.opts.Seed, e, p, k)
			writer := h.aliveEntry(e + p + k)
			rcpt, err := h.members[writer].PutQuorum(rec.key, []byte(val))
			h.hist.record(histcheck.Op{
				Client: writer, Kind: histcheck.OpPut, Key: rec.key,
				Value: val, Version: rcpt.Version, Acked: err == nil, Epoch: e,
			})
			if err == nil {
				rec.lastAcked = val
				rec.ackEpoch = e
				rec.ackVer = rcpt.Version
				rec.excused = false
				rec.excuseWhy = ""
				acks++
			} else {
				perr++
			}
			check := h.phase != phaseFault && h.steadyStreak >= 2 &&
				rec.lastAcked != "" && !rec.excused
			reader := h.aliveEntry(e + p + k + 1)
			op := histcheck.Op{
				Client: reader, Kind: histcheck.OpGet, Key: rec.key,
				Relaxed: !check, Epoch: e,
			}
			v, ver, ok, err := h.members[reader].GetVersioned(rec.key)
			switch {
			case err != nil:
				rerr++ // unreachable routes are chaos, not violations
				op.Errored = true
			case !ok:
				if check {
					h.violate("staleness", "epoch %d: key %s read not-found after ack %q", e, rec.key, rec.lastAcked)
				}
			default:
				rok++
				op.Value, op.Version, op.Found = string(v), ver, true
				if check && string(v) != rec.lastAcked {
					h.violate("staleness", "epoch %d: key %s read %q, last acked %q", e, rec.key, v, rec.lastAcked)
				}
			}
			h.hist.record(op)
		}
	}
	h.acked += acks
	h.putErrs += perr
	h.readOK += rok
	h.readErrs += rerr
	return acks, perr, rok, rerr
}

// deciderFor builds node i's per-message fault decision function. All
// draws come from the shared seeded stream; the single-threaded
// lockstep schedule makes the draw order — and therefore the whole
// fault pattern — a pure function of the seed.
func (h *harness) deciderFor(i int) transport.FaultFunc {
	return func(from, to string, m *transport.Message) transport.FaultAction {
		if j := h.peerIndex(to); j >= 0 && h.cut[i][j] > 0 {
			h.faults.Drop(m.Kind)
			return transport.FaultDrop
		}
		if h.phase != phaseFault {
			return transport.FaultDeliver
		}
		r := h.msgRNG.Float64()
		switch {
		case r < h.opts.DropRate:
			h.faults.Drop(m.Kind)
			return transport.FaultDrop
		case r < h.opts.DropRate+h.opts.DupRate:
			h.faults.Duplicate()
			return transport.FaultDuplicate
		case r < h.opts.DropRate+h.opts.DupRate+h.opts.DelayRate && delayable(m.Kind):
			if cl, err := transport.CloneMessage(m); err == nil {
				h.faults.Delay(m.Kind)
				h.delayed = append(h.delayed, delayedMsg{from: i, to: to, msg: cl})
				return transport.FaultDrop
			}
		}
		return transport.FaultDeliver
	}
}

// delayable reports whether a message kind may be deferred one epoch.
// Writes (KindPut) are excluded: a put the sender saw fail must not
// land later and overwrite a newer acknowledged value — that would
// turn a reported failure into silent data corruption, which is a
// client-contract bug, not a network fault. Queries gain nothing from
// re-execution an epoch late. The transfer-session kinds are all
// delayable: the target's cursor makes a late begin/chunk/done replay
// a no-op ack, which is exactly the idempotence the sessions claim.
// Anti-entropy repairs are transfer sessions too, and their entries
// merge version-gated, so a late payload loses to a newer copy instead
// of regressing it.
func delayable(kind uint8) bool {
	switch kind {
	case node.KindSync, node.KindDrop, node.KindStats,
		node.KindXferBegin, node.KindXferChunk, node.KindXferCursor, node.KindXferDone, node.KindXferOffer:
		return true
	default:
		return false
	}
}

// peerIndex resolves a transport address back to its roster index, or
// -1 for addresses outside the fleet.
func (h *harness) peerIndex(addr string) int {
	for i := 0; i < h.fleet.Len(); i++ {
		if h.fleet.Addr(i) == addr {
			return i
		}
	}
	return -1
}
