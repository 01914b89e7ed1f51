// Package chaos is a seeded, fully deterministic fault-injection and
// invariant-checking harness for the live cluster runtime. A FaultPlan
// derived from one seed schedules message drops, duplicated and
// delayed deliveries, symmetric and asymmetric link cuts, and node
// crash/restart cycles against a node.Fleet over the loopback
// transport, while a generated client workload records every
// acknowledged write and its quorum receipt — and, beyond the
// aggregate ground truth, the COMPLETE operation history: every put
// and get invocation/response with interval timestamps, version
// stamps, ack state and the binding/relaxed mark, plus a reset op
// wherever the environment legally destroyed a key. Invariant checkers
// run every epoch and at quiescence: no acked write is ever lost while
// a live node still holds a copy (message faults alone never excuse a
// loss — only the physical destruction of every copy does), reads are
// at least as new as the last acked write per key, every partition
// re-converges to the availability bound within the clean cool-down
// window, replica counts never exceed the fleet size, and identical
// seeds produce bit-identical trajectory dumps. At quiescence the
// recorded history is handed to the histcheck package: the per-key WGL
// linearizability search and the session-guarantee scan
// (read-your-writes, monotonic reads, monotonic writes) judge the run
// as first-class invariants alongside durability and convergence.
//
// Everything in the package obeys the determinism contract (rfhlint
// clean): all randomness flows from stats.RNG streams seeded by the
// scenario seed, no wall clock is read, and no map is iterated.
package chaos

import "repro/internal/stats"

// Options configures one chaos scenario. The zero value is not
// runnable; start from DefaultOptions.
type Options struct {
	Nodes            int // fleet size (≥ 3; node 0 is never crashed)
	Partitions       int
	KeysPerPartition int

	WarmEpochs  int // clean epochs before faults: placement converges
	FaultEpochs int // epochs under fault injection
	CoolEpochs  int // clean epochs after faults: recovery window

	Seed uint64

	// Per-message fault probabilities during the fault window.
	DropRate  float64
	DupRate   float64
	DelayRate float64

	// Per-epoch schedule probabilities during the fault window.
	CrashRate float64 // chance to crash one node (if none is down)
	CutRate   float64 // chance to open one link cut

	// Quorum sizes the workload's writes and reads run under, wired
	// straight into node.Config. With W ≥ 2 an acked write has a live
	// copy beyond the primary, which is what lets the durability
	// checker treat message faults as non-excuses: only the physical
	// crash of every copy-holder may excuse a loss.
	WriteQuorum int
	ReadQuorum  int

	// DataDir, when non-empty, runs the fleet on the durable storage
	// engine: each node gets its own subdirectory under it, crash events
	// keep the victim's disk state, and restarts recover it — the
	// schedule then exercises WAL replay, rejoin re-injection and the
	// transfer-session resume cursors. The durable config cuts every
	// partition with more than one key into one-entry chunks, so ships
	// run multi-chunk sessions, and compacts WALs aggressively, so even
	// the small scenario fleets cross every durable code path. Empty
	// keeps the in-memory store, where every ship is a one-chunk
	// session: a probe, then a begin that carries the chunk.
	DataDir string

	// Verbose adds per-event lines to the trajectory dump.
	Verbose bool

	// GhostWrite fabricates an acknowledged write that never happened
	// right before the final checks — a deliberately broken history the
	// durability checker MUST flag. Tests use it to prove violations
	// are caught and reported, not silently excused.
	GhostWrite bool

	// Check selects which history checkers judge the recorded op
	// history at quiescence: "linearizable" (the default, and what the
	// empty string means) runs the per-key WGL linearizability search
	// plus the session-guarantee scan, "sessions" runs only the linear
	// session scan, and "off" disables both. The history is recorded
	// and returned in the Result either way.
	Check string

	// InjectStaleRead and InjectLostWrite fabricate history faults
	// right before the checkers run: a binding read of a long-
	// overwritten version, and an acked write whose same-client
	// follow-up read still sees the old value. The history checkers
	// MUST flag both — tests use them the way GhostWrite proves the
	// durability checker has teeth.
	InjectStaleRead bool
	InjectLostWrite bool
}

// DefaultOptions returns the standard scenario shape for the given
// seed: a 5-node fleet, 12 partitions, and a fault window sized so
// every fault class has room to fire.
func DefaultOptions(seed uint64) Options {
	return Options{
		Nodes:            5,
		Partitions:       12,
		KeysPerPartition: 2,
		WarmEpochs:       6,
		FaultEpochs:      12,
		CoolEpochs:       10,
		Seed:             seed,
		DropRate:         0.05,
		DupRate:          0.03,
		DelayRate:        0.03,
		CrashRate:        0.25,
		CutRate:          0.30,
		WriteQuorum:      2,
		ReadQuorum:       2,
	}
}

// Epochs returns the scenario's total epoch count.
func (o *Options) Epochs() int { return o.WarmEpochs + o.FaultEpochs + o.CoolEpochs }

// Plan event kinds.
const (
	evCrash   = iota // crash node a
	evRestart        // restart node a
	evCut            // sever the directed link a→b
	evUncut          // restore the directed link a→b
)

// planEvent is one scheduled fault transition at an epoch boundary.
type planEvent struct {
	kind int
	a, b int
}

// plan is the precomputed fault schedule: every crash, restart, cut
// and heal pinned to an epoch boundary at construction time, so the
// run itself is pure table lookup. Per-message faults (drop/dup/delay)
// are drawn from a separate RNG stream at send time instead — their
// schedule depends on the message sequence, which the seed also fixes.
type plan struct {
	events [][]planEvent // indexed by absolute epoch
}

// buildPlan derives the fault schedule from the scenario seed. All
// crash/restart pairs and cut/heal pairs close before the cool-down
// window starts, so the recovery invariants measure a genuinely clean
// cluster. Node 0 is never crashed: a surviving reference node keeps
// placement claims flowing and anchors the restart epoch.
//
// Crash durations always exceed the suspicion window: the fleet must
// detect the loss and re-place the victim's partitions before it
// returns, or the rejoin protocol has nothing to rejoin to (peers
// would still list the wiped node as a holder and its empty view could
// never fill). Sub-suspicion blips are the live-cluster equivalent of
// a delayed stats message, which the per-message delay fault models.
func buildPlan(o *Options) *plan {
	rng := stats.NewRNG(o.Seed ^ 0x91A5)
	p := &plan{events: make([][]planEvent, o.Epochs()+1)}
	faultStart := o.WarmEpochs
	faultEnd := o.WarmEpochs + o.FaultEpochs // first cool epoch

	add := func(e int, ev planEvent) {
		if e > faultEnd {
			e = faultEnd
		}
		p.events[e] = append(p.events[e], ev)
	}

	downUntil := -1 // one crashed node at a time keeps the fleet live
	for e := faultStart; e < faultEnd; e++ {
		if e >= downUntil && rng.Bool(o.CrashRate) {
			victim := 1 + rng.Intn(o.Nodes-1) // never node 0
			dur := suspectAfter + 3 + rng.Intn(2)
			if e+dur <= faultEnd { // the restart must not be clamped shorter
				add(e, planEvent{kind: evCrash, a: victim})
				add(e+dur, planEvent{kind: evRestart, a: victim})
				downUntil = e + dur
			}
		}
		if rng.Bool(o.CutRate) {
			i := rng.Intn(o.Nodes)
			j := rng.Intn(o.Nodes - 1)
			if j >= i {
				j++
			}
			dur := 1 + rng.Intn(2)
			add(e, planEvent{kind: evCut, a: i, b: j})
			add(e+dur, planEvent{kind: evUncut, a: i, b: j})
			if rng.Bool(0.5) { // symmetric partition half the time
				add(e, planEvent{kind: evCut, a: j, b: i})
				add(e+dur, planEvent{kind: evUncut, a: j, b: i})
			}
		}
	}
	return p
}
