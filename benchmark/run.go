package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/node"
	"repro/internal/stats"
	"repro/internal/transport"
)

// Fixed shape of the closed loop (see README, design rule 1).
const (
	pipelineDepth  = 4  // outstanding requests per client connection when saturating
	bootTicks      = 4  // fewest lockstep epochs before the first write
	stableEpochs   = 5  // epochs without a placement decision that end convergence
	maxConvEpochs  = 60 // convergence cap; hitting it fails the run
	maxRejoinTicks = 60 // rejoin cap per cycle; hitting it fails the run
)

// run is one workload instance: a fleet, its clients and the record of
// what has been acknowledged, against which every reply is checked.
type run struct {
	s       spec
	seed    uint64
	dataDir string

	f       *fleet
	clients []client // one per entry node, in entries() order
	live    []client // the clients whose entry node is up
	closers []func()
	rec     *recorder // nil unless this run is traced
	names   []string

	acked []atomic.Uint64 // per key: highest version a put was acked with
	seq   []atomic.Uint64 // per key: write sequence, makes every value distinct

	attempted, failed atomic.Int64
	errMu             sync.Mutex
	firstErr          error

	sinceTick int           // serial ops since the last inline tick
	tickTime  time.Duration // spent in inline ticks so far
	serialBuf []byte        // the serial client's put buffer: the frame encoder copies it
}

func (r *run) fail(err error) {
	r.failed.Add(1)
	r.errMu.Lock()
	if r.firstErr == nil {
		r.firstErr = err
	}
	r.errMu.Unlock()
}

// setupStats is what one set-up produced.
type setupStats struct {
	seconds       float64
	convEpochs    int
	holdersMean   float64
	residentBytes float64 // heap growth across set-up, after GC
	decisions     node.DecisionCounts
}

// heapAfterGC returns the live heap once garbage (and the sync.Pool
// victim caches, which take two cycles to drain) is gone.
func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// newRun performs one complete set-up: build the fleet, let placement
// settle, preload every key, replay the workload's own traffic
// serially until the policy stops moving replicas, collect garbage.
// Everything in it is serial and driven by op count, so for one seed
// the fleet that comes out is the same every time.
func newRun(s spec, seed uint64, dataRoot string, rec *recorder) (*run, setupStats, error) {
	r := &run{s: s, seed: seed, rec: rec, names: keyNames(s.keys), serialBuf: make([]byte, s.valueBytes)}
	r.acked = make([]atomic.Uint64, s.keys)
	r.seq = make([]atomic.Uint64, s.keys)
	var st setupStats

	heap0 := heapAfterGC()
	start := time.Now()
	if err := r.build(dataRoot); err != nil {
		r.close()
		return nil, st, err
	}
	if err := r.converge(&st); err != nil {
		r.close()
		return nil, st, err
	}
	heap1 := heapAfterGC()
	st.seconds = time.Since(start).Seconds()
	_, st.holdersMean = r.f.holders()
	st.decisions = r.f.decisions()
	st.residentBytes = float64(heap1) - float64(heap0)
	return r, st, nil
}

// build starts the fleet and one client per entry node.
func (r *run) build(dataRoot string) error {
	if r.s.durable {
		dir, err := os.MkdirTemp(dataRoot, "data-"+r.s.name+"-")
		if err != nil {
			return err
		}
		r.dataDir = dir
	}
	var wrap wrapFunc
	if r.rec != nil {
		wrap = r.rec.wrap
	}
	f, err := buildFleet(r.s, r.dataDir, wrap)
	if err != nil {
		return err
	}
	r.f = f
	if r.rec != nil {
		r.rec.setAddrs(f.addrs)
	}
	for _, e := range f.entries() {
		var tr transport.Transport = transport.NewTCPClient(transport.TCPOptions{
			IOTimeout: 10 * time.Second, Retries: 1, RetryBackoff: 5 * time.Millisecond,
		})
		if r.rec != nil {
			tr = r.rec.wrap(clientNode, tr)
		}
		r.clients = append(r.clients, client{tr: tr, addr: f.addrs[e]})
		r.closers = append(r.closers, func() { tr.Close() })
	}
	r.refreshLive()
	return nil
}

// converge brings the fresh fleet to the state the phases measure:
// idle epochs until every partition has its quorum of holders, every
// key written once, then the workload's traffic until no placement
// decision has been taken for stableEpochs epochs in a row.
func (r *run) converge(st *setupStats) error {
	s, f := r.s, r.f
	need := max(s.w, f.nodes[0].MinReplicas())
	// Placement must reach the write quorum before the first put, or
	// the preload would be refused.
	for e := 0; ; e++ {
		if fewest, _ := f.holders(); e >= bootTicks && fewest >= need {
			break
		}
		if e == maxConvEpochs {
			return fmt.Errorf("%s: placement did not reach %d holders per partition in %d idle epochs", s.name, need, maxConvEpochs)
		}
		if err := f.tick(); err != nil {
			return err
		}
	}
	for k := 0; k < s.keys; k++ {
		if err := r.serialOp(op{key: k, put: true}, k, nil); err != nil {
			return err
		}
	}
	conv := newOpStream(s, r.seed, 0)
	quiet, last := 0, f.decisions()
	for quiet < stableEpochs {
		if st.convEpochs == maxConvEpochs {
			return fmt.Errorf("%s: placement still moving after %d epochs (decisions %+v)", s.name, maxConvEpochs, last)
		}
		for i := 0; i < s.opsPerEpoch; i++ {
			if err := r.serialOp(conv.next(), i, nil); err != nil {
				return err
			}
		}
		st.convEpochs++
		now := f.decisions()
		fewest, _ := f.holders()
		if now == last && fewest >= need && f.transfersIdle() {
			quiet++
		} else {
			quiet = 0
		}
		last = now
	}
	if n := r.failed.Load(); n > 0 {
		return fmt.Errorf("%s: %d of %d set-up ops failed, first: %w", s.name, n, r.attempted.Load(), r.firstErr)
	}
	return nil
}

func (r *run) close() {
	for _, c := range r.closers {
		c()
	}
	if r.f != nil {
		r.f.close()
	}
	if r.dataDir != "" {
		os.RemoveAll(r.dataDir)
	}
}

// do issues one request through c, checks the reply and returns how
// long the call took. A get must return a well-formed value of this
// key at a version no older than the newest one acknowledged before
// the get was sent.
func (r *run) do(c client, o op, buf []byte) time.Duration {
	r.attempted.Add(1)
	name := r.names[o.key]
	if o.put {
		fillValue(buf, o.key, r.seq[o.key].Add(1))
		t0 := time.Now()
		ver, err := c.put(name, buf)
		d := time.Since(t0)
		if err != nil {
			r.fail(fmt.Errorf("put %s: %w", name, err))
			return d
		}
		for {
			old := r.acked[o.key].Load()
			if ver <= old || r.acked[o.key].CompareAndSwap(old, ver) {
				break
			}
		}
		return d
	}
	want := r.acked[o.key].Load()
	t0 := time.Now()
	val, ver, found, err := c.get(name)
	d := time.Since(t0)
	switch {
	case err != nil:
		r.fail(fmt.Errorf("get %s: %w", name, err))
	case !found:
		r.fail(fmt.Errorf("get %s: not found, acked version %d", name, want))
	case ver < want:
		r.fail(fmt.Errorf("get %s: version %d older than acked %d", name, ver, want))
	default:
		if err := checkValue(val, o.key, r.s.valueBytes); err != nil {
			r.fail(fmt.Errorf("get %s: %w", name, err))
		}
	}
	return d
}

// refreshLive recomputes live after a crash or a restart.
func (r *run) refreshLive() {
	r.live = r.live[:0]
	for i, e := range r.f.entries() {
		if !r.f.dead[e] {
			r.live = append(r.live, r.clients[i])
		}
	}
}

// serialOp issues op number i of a serial stream: it alternates between
// the entry nodes, hands the latency to record (nil: untimed), and runs
// an epoch inline every opsPerEpoch ops. Only an epoch failure is an
// error; a failed op is counted.
func (r *run) serialOp(o op, i int, record func(latency time.Duration, put bool)) error {
	c := r.live[i%len(r.live)]
	if r.rec != nil && r.rec.on.Load() {
		r.traced(c, o)
	} else {
		d := r.do(c, o, r.serialBuf)
		if record != nil {
			record(d, o.put)
		}
	}
	r.sinceTick++
	if r.sinceTick >= r.s.opsPerEpoch {
		r.sinceTick = 0
		t0 := time.Now()
		if err := r.f.tick(); err != nil {
			return fmt.Errorf("%s: epoch: %w", r.s.name, err)
		}
		r.tickTime += time.Since(t0)
	}
	return nil
}

// traced is do with an op span around it.
func (r *run) traced(c client, o op) {
	id := int(r.attempted.Load())
	r.rec.op.Store(int64(id))
	kind := node.KindGet
	if o.put {
		kind = node.KindPut
	}
	start := time.Since(r.rec.epoch)
	r.do(c, o, r.serialBuf)
	end := time.Since(r.rec.epoch)
	r.rec.add(span{Op: id, Type: spanOp, Node: clientNode, Peer: -1, Kind: kind, Start: int64(start), End: int64(end)})
	r.rec.op.Store(epochOp)
}

// phaseStats is one closed-loop phase.
type phaseStats struct {
	sl       *sliceSet
	ops      int64
	busy     time.Duration // wall time minus inline ticks
	mallocs  uint64
	tickTime time.Duration
}

// sliceLength is the length of one slice of a phase: short enough that
// a quiet spell of the host fills one, long enough for thousands of
// samples.
const sliceLength = 250 * time.Millisecond

// slicing returns how a phase of length d is cut: slices of
// sliceLength, shorter ones when the phase is too short to have four.
func slicing(d time.Duration) (n int, length time.Duration) {
	length = sliceLength
	if d < 4*length {
		length = d / 4
	}
	return int(d / length), length
}

// serialPhase runs one client for d: request, wait, next request.
// Epochs run inline between requests and are not part of any latency
// sample.
func (r *run) serialPhase(d time.Duration, g *opStream) (phaseStats, error) {
	n, length := slicing(d)
	ps := phaseStats{sl: newSliceSet(n, length)}
	start := time.Now()
	end := time.Duration(n) * length
	tick0 := r.tickTime
	for i := 0; ; i++ {
		now := time.Since(start)
		if now >= end {
			ps.tickTime = r.tickTime - tick0
			ps.busy = now - ps.tickTime
			return ps, nil
		}
		err := r.serialOp(g.next(), i, func(lat time.Duration, put bool) {
			ps.sl.record(now+lat, lat, put)
		})
		if err != nil {
			return ps, err
		}
		ps.ops++
	}
}

// saturationPhase keeps pipelineDepth requests outstanding on each
// entry node's client connection for d. Epochs are driven by the
// shared op count, never by the clock, so a faster build sees the same
// queries per epoch: the worker whose op crosses an epoch boundary
// wakes the ticker goroutine, and the tick overlaps traffic.
func (r *run) saturationPhase(d time.Duration) (phaseStats, error) {
	n, length := slicing(d)
	cs := r.live
	workers := len(cs) * pipelineDepth
	sets := make([]*sliceSet, workers)
	gens := make([]*opStream, workers)
	for w := range sets {
		sets[w] = newSliceSet(n, length)
		gens[w] = newOpStream(r.s, r.seed, 1+w)
	}

	var ops atomic.Int64
	var tickErr error
	var tickTime time.Duration
	wake := make(chan struct{}, 1) // one pending wake-up is enough: ticks coalesce
	tickerDone := make(chan struct{})
	go func() {
		defer close(tickerDone)
		for range wake {
			t0 := time.Now()
			if err := r.f.tick(); err != nil && tickErr == nil {
				tickErr = err
			}
			tickTime += time.Since(t0)
		}
	}()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	end := time.Duration(n) * length
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, sl, g := cs[w%len(cs)], sets[w], gens[w]
			buf := make([]byte, r.s.valueBytes)
			for time.Since(start) < end {
				o := g.next()
				lat := r.do(c, o, buf)
				sl.record(time.Since(start), lat, o.put)
				if ops.Add(1)%int64(r.s.opsPerEpoch) == 0 {
					select {
					case wake <- struct{}{}:
					default:
					}
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	close(wake)
	<-tickerDone

	ps := phaseStats{sl: sets[0], ops: ops.Load(), busy: elapsed, tickTime: tickTime, mallocs: after.Mallocs - before.Mallocs}
	for _, s := range sets[1:] {
		ps.sl.merge(s)
	}
	return ps, tickErr
}

// rejoinStats is the outcome of the crash/overwrite/restart cycles.
type rejoinStats struct {
	down      [][]float64 // per cycle: seconds of each epoch while the victim is down
	back      []float64   // per cycle: seconds of Restart plus the epochs until converged
	ticks     []int       // per cycle: epochs after Restart
	bytes     int64       // maintenance payload bytes over all cycles
	staleKeys int         // keys overwritten while a victim was down, over all cycles
}

// quietCycle assembles the time of one undisturbed cycle: for each of
// the epochs the victim is down, the fastest that epoch ran in any
// cycle, plus the fastest Restart-to-converged part. A whole cycle
// lasts from 10 ms to 0.3 s and a single hiccup of the host spoils it;
// its parts are spoiled one at a time, and every cycle has the same
// parts.
func (st rejoinStats) quietCycle() float64 {
	sum := slices.Min(st.back)
	for i := range st.down[0] {
		best := st.down[0][i]
		for _, d := range st.down[1:] {
			best = min(best, d[i])
		}
		sum += best
	}
	return sum
}

// victim picks the live node that serves the most keys (resident
// partitions it holds by its own view); ties go to the lowest index.
func (r *run) victim() int {
	best, bestKeys := -1, -1
	for i, nd := range r.f.nodes {
		if r.f.dead[i] {
			continue
		}
		keys := 0
		for _, p := range nd.Dump().Partitions {
			if !p.Resident {
				continue
			}
			for _, h := range p.Replicas {
				if h == i {
					keys += p.Keys
				}
			}
		}
		if keys > bestKeys {
			best, bestKeys = i, keys
		}
	}
	return best
}

// current reports whether every holder of every key in keys stores the
// newest acked version, and every such partition has at least need
// holders.
func (r *run) current(keys []int, need int) bool {
	var rm [][]int
	for i, nd := range r.f.nodes {
		if !r.f.dead[i] {
			rm = nd.ReplicaMap()
			break
		}
	}
	for _, k := range keys {
		name := r.names[k]
		hs := rm[r.f.nodes[0].PartitionOf(name)]
		if len(hs) < need {
			return false
		}
		want := r.acked[k].Load()
		for _, h := range hs {
			if r.f.dead[h] {
				return false
			}
			if _, ver, ok := r.f.nodes[h].LocalVersion(name); !ok || ver < want {
				return false
			}
		}
	}
	return true
}

// rejoinCycles measures failure handling with no foreground traffic in
// the timed part: crash the busiest node, run the epochs in which the
// survivors suspect it and re-replicate what it held, overwrite
// staleKeys keys through the survivors (untimed), restart the victim,
// and run back-to-back epochs until it has rejoined, no transfer is in
// flight and every holder of every overwritten key is current. Every
// epoch and Restart is timed; quietCycle turns them into rejoin_s.
func (r *run) rejoinCycles() (rejoinStats, error) {
	var st rejoinStats
	need := max(r.s.w, r.f.nodes[0].MinReplicas())
	order := stats.NewRNG(r.seed).Stream(1 << 32).Perm(r.s.keys)
	suspectAfter := nodeConfig(r.s).SuspectAfter
	bytes0 := r.f.maintenanceBytes()
	for c := 0; c < r.s.rejoinCycles; c++ {
		v := r.victim()
		runtime.GC() // not in the middle of a cycle that lasts milliseconds
		r.f.crash(v)
		r.refreshLive()
		down := make([]float64, suspectAfter+3)
		for i := range down {
			t0 := time.Now()
			if err := r.f.tick(); err != nil {
				return st, err
			}
			down[i] = time.Since(t0).Seconds()
		}
		stale := make([]int, r.s.staleKeys)
		for i := range stale {
			stale[i] = order[(c*r.s.staleKeys+i)%len(order)]
			r.do(r.live[i%len(r.live)], op{key: stale[i], put: true}, r.serialBuf)
		}
		st.staleKeys += len(stale)

		t0 := time.Now()
		if err := r.f.restart(v); err != nil {
			return st, err
		}
		back := time.Since(t0)
		r.refreshLive()
		ticks := 0
		for r.f.nodes[v].Recovering() || !r.f.transfersIdle() || !r.current(stale, need) {
			if ticks == maxRejoinTicks {
				return st, fmt.Errorf("%s: cycle %d: node %d not converged %d epochs after restart", r.s.name, c, v, ticks)
			}
			t0 = time.Now()
			if err := r.f.tick(); err != nil {
				return st, err
			}
			back += time.Since(t0)
			ticks++
		}
		st.down = append(st.down, down)
		st.back = append(st.back, back.Seconds())
		st.ticks = append(st.ticks, ticks)
	}
	st.bytes = r.f.maintenanceBytes() - bytes0
	return st, nil
}

// readBack reads every key through the entry nodes and checks it
// against the newest acked version.
func (r *run) readBack() {
	for k := 0; k < r.s.keys; k++ {
		r.do(r.live[k%len(r.live)], op{key: k}, nil)
	}
}
