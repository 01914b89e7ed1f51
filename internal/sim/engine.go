package sim

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/availability"
	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/policy"
	"repro/internal/ring"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/traffic"
	"repro/internal/workload"
)

// FailureEvent kills, recovers and/or joins servers at the start of
// the given epoch (Fig. 10 removes 30 random servers at epoch 290;
// §III-G also exercises node join).
type FailureEvent struct {
	Epoch   int
	Fail    []cluster.ServerID
	Recover []cluster.ServerID
	// Join adds one brand-new server per listed datacenter.
	Join []topology.DCID
}

// Engine drives one policy over one workload. Create with New, then
// Run (or Step repeatedly) and read the recorded series.
type Engine struct {
	cfg     Config
	cluster *cluster.Cluster
	router  *network.Router
	hashing *ring.Ring
	gen     workload.Generator
	pol     policy.Policy
	tracker *traffic.Tracker
	rec     *metrics.Recorder
	rng     *stats.RNG

	failures    []FailureEvent
	minReplicas int
	epoch       int

	// Churn state: epoch at which a churn-failed server recovers.
	churnRNG  *stats.RNG
	downUntil map[cluster.ServerID]int

	// Cumulative action counters behind Figs. 5–7.
	cumReplCost float64
	cumMigrCost float64
	cumRepl     int
	cumMigr     int

	// Per-epoch action counts (reset by recordEpoch).
	epochRepl    int
	epochMigr    int
	epochSuicide int

	// removeReplica is the migration-removal step; a seam so tests can
	// exercise the half-completed-migration accounting.
	removeReplica func(partition int, s cluster.ServerID) error

	// Scratch state reused across epochs.
	outcomes []partitionOutcome

	// Persistent worker pool (started lazily on the first Step, stopped
	// by Close). Workers steal chunks of the partition index space via
	// nextChunk and keep their scratch arenas across epochs.
	workers   []*epochWorker
	workerWG  sync.WaitGroup
	quit      chan struct{}
	closeOnce sync.Once
	nextChunk atomic.Int64
	curDemand *workload.Matrix

	// recordEpoch/mergeOutcomes scratch, reused across epochs.
	servedScratch  []int
	capScratch     []int
	loadScratch    []float64
	hopHistScratch []int
	servedByDC     []int
	recoveries     []cluster.ServerID
}

// epochWorker is one pool worker's scratch arena. Everything in it is
// touched only by its owning goroutine during a serve round, so the
// steady-state epoch loop runs allocation-free.
type epochWorker struct {
	prop     *traffic.Propagator
	capacity []int // per-DC replica capacity of the current partition
	slots    []allocSlot
	rems     []allocRem
	err      error
	wake     chan struct{}
}

type allocSlot struct {
	idx  int // index into partitionOutcome.servers
	capc int
}

type allocRem struct {
	idx  int
	frac float64
}

// partitionOutcome is one partition's epoch serving result, produced by
// a worker and merged deterministically by the engine.
type partitionOutcome struct {
	traffic  []int // arrivals per DC (copied out of the propagator)
	unserved int
	total    int
	hopsSum  int
	// servedOn[i] pairs with servers[i]: this partition's replicas and
	// the queries each served this epoch.
	servers  []cluster.ServerID
	servedOn []int
	hopHist  []int // served queries per lookup hop count
	skip     bool  // partition had no primary this epoch
}

// New builds an engine: it projects every server onto the consistent-
// hashing ring, seeds each partition's primary copy at its ring owner,
// and prepares the traffic tracker.
func New(cl *cluster.Cluster, rt *network.Router, gen workload.Generator, pol policy.Policy, cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cl.World() != rt.World() {
		return nil, fmt.Errorf("sim: cluster and router disagree on the world")
	}
	minRep, err := availability.MinReplicas(cfg.FailureRate, cfg.MinAvailability)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	tr, err := traffic.NewTracker(cl.NumPartitions(), cl.World().NumDCs(), cfg.Thresholds)
	if err != nil {
		return nil, err
	}
	if cfg.Latency == (metrics.LatencyModel{}) {
		cfg.Latency = metrics.DefaultLatencyModel()
	}
	dcs := cl.World().NumDCs()
	e := &Engine{
		cfg:            cfg,
		cluster:        cl,
		router:         rt,
		hashing:        ring.New(),
		gen:            gen,
		pol:            pol,
		tracker:        tr,
		rec:            metrics.NewRecorder(),
		rng:            stats.NewRNG(cfg.Seed ^ 0x5157),
		minReplicas:    minRep,
		outcomes:       make([]partitionOutcome, cl.NumPartitions()),
		quit:           make(chan struct{}),
		hopHistScratch: make([]int, dcs),
		servedByDC:     make([]int, dcs),
	}
	e.removeReplica = func(partition int, s cluster.ServerID) error {
		return e.cluster.RemoveReplica(partition, s)
	}
	for i := 0; i < cl.NumServers(); i++ {
		if err := e.hashing.AddServer(i, cfg.TokensPerServer); err != nil {
			return nil, err
		}
	}
	if cfg.ChurnFailProb > 0 {
		e.churnRNG = stats.NewRNG(cfg.Seed ^ 0xC4012)
		e.downUntil = make(map[cluster.ServerID]int)
	}
	// Seed primaries at ring owners (§II-B partitioning).
	for p := 0; p < cl.NumPartitions(); p++ {
		if err := e.seedPartition(p); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// seedPartition places the partition's first copy on its ring owner (or
// the first hostable successor).
func (e *Engine) seedPartition(p int) error {
	pos := ring.HashUint64(uint64(p))
	for _, vn := range e.hashing.Successors(pos, e.cluster.NumServers()) {
		s := cluster.ServerID(vn.Server)
		if e.cluster.CanHost(p, s) {
			return e.cluster.AddReplica(p, s)
		}
	}
	return fmt.Errorf("sim: no server can host partition %d", p)
}

// ScheduleFailure registers a failure/recovery event. Events may be
// added in any order before or during the run; events for past epochs
// are ignored.
func (e *Engine) ScheduleFailure(ev FailureEvent) {
	e.failures = append(e.failures, ev)
	sort.SliceStable(e.failures, func(i, j int) bool { return e.failures[i].Epoch < e.failures[j].Epoch })
}

// Cluster exposes the underlying cluster (read-mostly, for tests and
// examples).
func (e *Engine) Cluster() *cluster.Cluster { return e.cluster }

// Tracker exposes the traffic tracker.
func (e *Engine) Tracker() *traffic.Tracker { return e.tracker }

// Recorder exposes the metric series recorded so far.
func (e *Engine) Recorder() *metrics.Recorder { return e.rec }

// Epoch returns the number of epochs completed.
func (e *Engine) Epoch() int { return e.epoch }

// MinReplicas returns the eq. (14) availability lower limit in force.
func (e *Engine) MinReplicas() int { return e.minReplicas }

// Policy returns the policy under simulation.
func (e *Engine) Policy() policy.Policy { return e.pol }

// Run executes the configured number of epochs and returns the metric
// recorder. It may be called once per engine.
func (e *Engine) Run() (*metrics.Recorder, error) {
	for e.epoch < e.cfg.Epochs {
		if err := e.Step(); err != nil {
			return nil, err
		}
	}
	if err := e.rec.Validate(); err != nil {
		return nil, err
	}
	return e.rec, nil
}

// Step simulates one epoch.
func (e *Engine) Step() error {
	t := e.epoch
	e.applyChurn(t)
	e.applyFailures(t)
	e.cluster.BeginEpoch()
	e.tracker.BeginEpoch()

	demand := e.gen.Epoch(t)
	if demand.Partitions() != e.cluster.NumPartitions() || demand.DCs() != e.cluster.World().NumDCs() {
		return fmt.Errorf("sim: demand matrix %dx%d does not match world %dx%d",
			demand.Partitions(), demand.DCs(), e.cluster.NumPartitions(), e.cluster.World().NumDCs())
	}

	if err := e.serveEpoch(demand); err != nil {
		return err
	}
	e.mergeOutcomes()
	e.tracker.EndEpoch()
	e.cluster.EndEpoch()

	ctx := &policy.Context{
		Epoch:           t,
		Cluster:         e.cluster,
		Tracker:         e.tracker,
		Router:          e.router,
		Ring:            e.hashing,
		Demand:          demand,
		FailureRate:     e.cfg.FailureRate,
		MinAvailability: e.cfg.MinAvailability,
		MinReplicas:     e.minReplicas,
		HubCandidates:   e.cfg.HubCandidates,
		RNG:             e.rng.Stream(uint64(t)),
	}
	dec := e.pol.Decide(ctx)
	e.applyDecision(dec)

	e.recordEpoch(demand)
	e.epoch++
	return nil
}

// applyChurn fails each alive server independently with the configured
// probability and revives servers whose MTTR elapsed. Deterministic for
// a fixed seed (one RNG stream per epoch).
func (e *Engine) applyChurn(t int) {
	if e.churnRNG == nil {
		return
	}
	mttr := e.cfg.ChurnMTTR
	if mttr == 0 {
		mttr = 20
	}
	// Collect due recoveries and apply them in ascending ServerID order:
	// map iteration order is randomised, and recovering servers mutates
	// the cluster and the hash ring, so a fixed order is what makes churn
	// runs bit-reproducible for a fixed seed.
	recov := e.recoveries[:0]
	for s, until := range e.downUntil {
		if until <= t {
			recov = append(recov, s)
		}
	}
	sort.Slice(recov, func(i, j int) bool { return recov[i] < recov[j] })
	e.recoveries = recov
	for _, s := range recov {
		e.cluster.RecoverServer(s)
		_ = e.hashing.AddServer(int(s), e.cfg.TokensPerServer)
		delete(e.downUntil, s)
	}
	rng := e.churnRNG.Stream(uint64(t))
	for id := 0; id < e.cluster.NumServers(); id++ {
		s := cluster.ServerID(id)
		if !e.cluster.Server(s).Alive() {
			continue
		}
		if rng.Bool(e.cfg.ChurnFailProb) {
			e.cluster.FailServer(s)
			e.hashing.RemoveServer(int(s))
			e.downUntil[s] = t + mttr
		}
	}
}

// applyFailures executes scheduled fail/recover events for epoch t,
// keeping the hash ring in sync and re-seeding partitions that lost
// their last copy.
func (e *Engine) applyFailures(t int) {
	for _, ev := range e.failures {
		if ev.Epoch != t {
			continue
		}
		for _, s := range ev.Fail {
			if e.cluster.Server(s).Alive() {
				e.cluster.FailServer(s)
				e.hashing.RemoveServer(int(s))
			}
		}
		for _, s := range ev.Recover {
			if !e.cluster.Server(s).Alive() {
				e.cluster.RecoverServer(s)
				// Ignore the error: re-adding a recovered server is only
				// invalid if it never left, which the guard above excludes.
				_ = e.hashing.AddServer(int(s), e.cfg.TokensPerServer)
			}
		}
		for _, dc := range ev.Join {
			s, err := e.cluster.JoinServer(dc)
			if err != nil {
				continue // unknown DC in a user-supplied event: skip
			}
			_ = e.hashing.AddServer(int(s), e.cfg.TokensPerServer)
		}
	}
	// Re-seed partitions whose last copy died (restored from archival
	// storage; the paper's Fig. 10 system keeps running after mass
	// failure).
	for p := 0; p < e.cluster.NumPartitions(); p++ {
		if e.cluster.Primary(p) < 0 {
			_ = e.seedPartition(p)
		}
	}
}

// startPool spins up the persistent worker goroutines. Called lazily by
// the first serveEpoch so engines that are built but never stepped cost
// nothing; the pool then lives until Close.
func (e *Engine) startPool() {
	workers := e.cfg.workers()
	if parts := e.cluster.NumPartitions(); workers > parts {
		workers = parts
	}
	var orders [][]topology.DCID
	if e.cfg.Serving == ServeNearest {
		orders = traffic.NearestOrder(e.router)
	}
	dcs := e.cluster.World().NumDCs()
	e.workers = make([]*epochWorker, workers)
	for w := range e.workers {
		wk := &epochWorker{
			prop:     traffic.NewPropagator(e.router),
			capacity: make([]int, dcs),
			wake:     make(chan struct{}, 1),
		}
		if orders != nil {
			wk.prop.ShareNearestOrder(orders)
		}
		e.workers[w] = wk
		go e.workerLoop(wk)
	}
}

// workerLoop is one pool goroutine: woken once per epoch, it steals
// chunks of the partition index space until the epoch is drained, then
// parks until the next round (or Close).
func (e *Engine) workerLoop(wk *epochWorker) {
	for {
		select {
		case <-e.quit:
			return
		case <-wk.wake:
		}
		parts := int64(e.cluster.NumPartitions())
		chunk := parts / int64(len(e.workers)*8)
		if chunk < 1 {
			chunk = 1
		}
		for {
			lo := e.nextChunk.Add(chunk) - chunk
			if lo >= parts {
				break
			}
			hi := lo + chunk
			if hi > parts {
				hi = parts
			}
			for p := lo; p < hi && wk.err == nil; p++ {
				if err := e.servePartition(wk, int(p), e.curDemand); err != nil {
					wk.err = err
				}
			}
		}
		e.workerWG.Done()
	}
}

// Close stops the worker pool. It is idempotent and safe on engines
// that never stepped; after Close the engine must not be stepped again.
func (e *Engine) Close() {
	e.closeOnce.Do(func() { close(e.quit) })
}

// serveEpoch propagates every partition's demand across the persistent
// worker pool. Each worker owns its scratch arena and writes only the
// outcome slots of partitions it stole, so the pass is race-free and
// the merged result is deterministic regardless of worker count.
func (e *Engine) serveEpoch(demand *workload.Matrix) error {
	if e.workers == nil {
		e.startPool()
	}
	e.curDemand = demand
	e.nextChunk.Store(0)
	e.workerWG.Add(len(e.workers))
	for _, wk := range e.workers {
		wk.err = nil
		wk.wake <- struct{}{}
	}
	e.workerWG.Wait()
	e.curDemand = nil
	// First error in worker order, for a deterministic failure report.
	for _, wk := range e.workers {
		if wk.err != nil {
			return wk.err
		}
	}
	return nil
}

// servePartition computes one partition's epoch outcome into
// e.outcomes[p]. Only the worker that stole p touches that slot.
func (e *Engine) servePartition(wk *epochWorker, p int, demand *workload.Matrix) error {
	out := &e.outcomes[p]
	primary := e.cluster.Primary(p)
	if primary < 0 {
		out.skip = true
		return nil
	}
	out.skip = false

	out.servers = e.cluster.AppendReplicaServers(out.servers[:0], p)
	servers := out.servers
	capacity := wk.capacity
	for d := range capacity {
		capacity[d] = 0
	}
	for _, s := range servers {
		capacity[e.cluster.DCOf(s)] += e.cluster.Server(s).ReplicaCapacity
	}
	var res *traffic.ServeResult
	var err error
	if e.cfg.Serving == ServePath {
		res, err = wk.prop.Propagate(e.cluster.DCOf(primary), demand.Q[p], capacity)
	} else {
		res, err = wk.prop.ServeNearest(e.cluster.DCOf(primary), demand.Q[p], capacity)
	}
	if err != nil {
		return err
	}

	// Copy the reusable result out.
	if cap(out.traffic) < len(res.TrafficByDC) {
		out.traffic = make([]int, len(res.TrafficByDC))
	}
	out.traffic = out.traffic[:len(res.TrafficByDC)]
	copy(out.traffic, res.TrafficByDC)
	out.unserved = res.Unserved
	out.total = res.TotalQueries
	out.hopsSum = res.HopsSum
	if cap(out.hopHist) < len(res.HopHist) {
		out.hopHist = make([]int, len(res.HopHist))
	}
	out.hopHist = out.hopHist[:len(res.HopHist)]
	copy(out.hopHist, res.HopHist)

	// Split each datacenter's served queries across its replicas in
	// proportion to capacity.
	if cap(out.servedOn) < len(servers) {
		out.servedOn = make([]int, len(servers))
	}
	out.servedOn = out.servedOn[:len(servers)]
	for i := range out.servedOn {
		out.servedOn[i] = 0
	}
	for d, served := range res.ServedByDC {
		if served == 0 {
			continue
		}
		e.allocateWithinDC(wk, topology.DCID(d), served, out)
	}
	return nil
}

// allocateWithinDC distributes served queries among the partition's
// replicas inside one datacenter proportionally to replica capacity,
// using largest-remainder rounding (deterministic, never exceeding any
// replica's capacity because the propagator capped served at the DC
// total). All scratch lives in the worker arena.
func (e *Engine) allocateWithinDC(wk *epochWorker, dc topology.DCID, served int, out *partitionOutcome) {
	slots := wk.slots[:0]
	capSum := 0
	for i, s := range out.servers {
		if e.cluster.DCOf(s) == dc {
			c := e.cluster.Server(s).ReplicaCapacity
			slots = append(slots, allocSlot{i, c})
			capSum += c
		}
	}
	wk.slots = slots
	if capSum == 0 {
		return
	}
	assigned := 0
	rems := wk.rems[:0]
	for _, sl := range slots {
		exact := float64(served) * float64(sl.capc) / float64(capSum)
		base := int(exact)
		out.servedOn[sl.idx] += base
		assigned += base
		rems = append(rems, allocRem{sl.idx, exact - float64(base)})
	}
	wk.rems = rems
	// Insertion sort by (remainder desc, index asc): the slot count is
	// bounded by the replicas of one partition in one DC, and avoiding
	// sort.Slice keeps the hot path allocation-free.
	for i := 1; i < len(rems); i++ {
		r := rems[i]
		j := i - 1
		for j >= 0 && (rems[j].frac < r.frac || (rems[j].frac == r.frac && rems[j].idx > r.idx)) {
			rems[j+1] = rems[j]
			j--
		}
		rems[j+1] = r
	}
	for i := 0; assigned < served && i < len(rems); i++ {
		out.servedOn[rems[i].idx]++
		assigned++
	}
}

// mergeOutcomes folds all partition outcomes into the tracker and the
// servers' arrival observers, in partition order for determinism.
func (e *Engine) mergeOutcomes() {
	var res traffic.ServeResult
	servedByDC := e.servedByDC
	for p := range e.outcomes {
		out := &e.outcomes[p]
		if out.skip {
			continue
		}
		for d := range servedByDC {
			servedByDC[d] = 0
		}
		for i, s := range out.servers {
			servedByDC[e.cluster.DCOf(s)] += out.servedOn[i]
		}
		res.TrafficByDC = out.traffic
		res.ServedByDC = servedByDC
		res.TotalQueries = out.total
		res.Unserved = out.unserved
		primary := e.cluster.Primary(p)
		e.tracker.Observe(p, e.cluster.DCOf(primary), &res)
		for i, s := range out.servers {
			e.cluster.Server(s).RecordArrivals(out.servedOn[i], out.servedOn[i])
		}
		// Overflow pounds on the primary: it arrived there and was
		// turned away, which is exactly what the blocking model should
		// see.
		if out.unserved > 0 {
			if primary := e.cluster.Primary(p); primary >= 0 {
				e.cluster.Server(primary).RecordArrivals(out.unserved, 0)
			}
		}
	}
}

// applyDecision enforces physical constraints and charges eq. (1)
// costs. Invalid or unaffordable actions are dropped silently — a
// policy requesting the impossible models a request message that its
// receiver rejects.
func (e *Engine) applyDecision(dec policy.Decision) {
	size := e.cluster.Spec().PartitionSize
	for _, rep := range dec.Replications {
		if !e.cluster.HasReplica(rep.Partition, rep.Source) || !e.cluster.CanHost(rep.Partition, rep.Target) {
			continue
		}
		if !e.cluster.ConsumeReplicationBW(rep.Source, size) {
			continue
		}
		if err := e.cluster.AddReplica(rep.Partition, rep.Target); err != nil {
			continue
		}
		cost, err := metrics.ReplicationCost(
			e.cluster.ReplicaDistance(rep.Source, rep.Target),
			e.cfg.FailureRate, size, e.cluster.Server(rep.Source).ReplicationBW)
		if err == nil {
			e.cumReplCost += cost
			e.cumRepl++
			e.epochRepl++
		}
	}
	for _, mig := range dec.Migrations {
		if !e.cluster.HasReplica(mig.Partition, mig.From) || !e.cluster.CanHost(mig.Partition, mig.To) {
			continue
		}
		if !e.cluster.ConsumeMigrationBW(mig.From, size) {
			continue
		}
		if err := e.cluster.AddReplica(mig.Partition, mig.To); err != nil {
			continue
		}
		wasPrimary := e.cluster.Primary(mig.Partition) == mig.From
		if err := e.removeReplica(mig.Partition, mig.From); err != nil {
			// Could not complete the move: the new copy already exists and
			// migration bandwidth was spent, which is physically a
			// replication. Charge it as one so the Figs. 5–7 cost and
			// action series do not silently under-report.
			cost, cerr := metrics.ReplicationCost(
				e.cluster.ReplicaDistance(mig.From, mig.To),
				e.cfg.FailureRate, size, e.cluster.Server(mig.From).MigrationBW)
			if cerr == nil {
				e.cumReplCost += cost
				e.cumRepl++
				e.epochRepl++
			}
			continue
		}
		if wasPrimary {
			_ = e.cluster.SetPrimary(mig.Partition, mig.To)
		}
		cost, err := metrics.ReplicationCost(
			e.cluster.ReplicaDistance(mig.From, mig.To),
			e.cfg.FailureRate, size, e.cluster.Server(mig.From).MigrationBW)
		if err == nil {
			e.cumMigrCost += cost
			e.cumMigr++
			e.epochMigr++
		}
	}
	for _, sui := range dec.Suicides {
		if e.cluster.Primary(sui.Partition) == sui.Server {
			continue // the primary never suicides
		}
		if e.cluster.RemoveReplica(sui.Partition, sui.Server) == nil {
			e.epochSuicide++
		}
	}
}

// recordEpoch appends one point to every metric series. Its per-replica
// scratch buffers live on the engine and are reused across epochs.
func (e *Engine) recordEpoch(demand *workload.Matrix) {
	servedPerReplica, capPerReplica := e.servedScratch[:0], e.capScratch[:0]
	hopHist := e.hopHistScratch
	for h := range hopHist {
		hopHist[h] = 0
	}
	totalQueries, totalHops, totalUnserved := 0, 0, 0
	for p := range e.outcomes {
		out := &e.outcomes[p]
		if out.skip {
			continue
		}
		totalQueries += out.total
		totalHops += out.hopsSum
		totalUnserved += out.unserved
		for h, n := range out.hopHist {
			hopHist[h] += n
		}
		for i, s := range out.servers {
			servedPerReplica = append(servedPerReplica, out.servedOn[i])
			capPerReplica = append(capPerReplica, e.cluster.Server(s).ReplicaCapacity)
		}
	}
	e.servedScratch, e.capScratch = servedPerReplica, capPerReplica
	util, err := metrics.ReplicaUtilization(servedPerReplica, capPerReplica)
	if err != nil {
		util = 0
	}
	// eq. (24): l_i is the workload of each *virtual node* — the load
	// imbalance L_b of eq. (25) is the standard deviation over replica
	// workloads, not over physical servers. Workload is normalised by
	// the replica's capacity: servers are heterogeneous (§III-A), so a
	// node's "load" is how hard it works relative to its capability —
	// this is what the §II-H blocking-probability placement equalises.
	// A zero-capacity replica (impossible through cluster validation,
	// but defended against here) is excluded rather than poisoning the
	// series with NaN/Inf.
	loads := e.loadScratch[:0]
	for i, v := range servedPerReplica {
		if capPerReplica[i] > 0 {
			loads = append(loads, float64(v)/float64(capPerReplica[i]))
		}
	}
	e.loadScratch = loads
	numAlive := e.cluster.NumAlive()

	totalReplicas := e.cluster.TotalReplicas()
	e.rec.Append(metrics.SeriesUtilization, util)
	e.rec.Append(metrics.SeriesTotalReplicas, float64(totalReplicas))
	e.rec.Append(metrics.SeriesAvgReplicas, float64(totalReplicas)/float64(e.cluster.NumPartitions()))
	e.rec.Append(metrics.SeriesReplCost, e.cumReplCost)
	e.rec.Append(metrics.SeriesReplCostAvg, safeDiv(e.cumReplCost, float64(e.cumRepl)))
	e.rec.Append(metrics.SeriesMigrTimes, float64(e.cumMigr))
	e.rec.Append(metrics.SeriesMigrTimesAvg, safeDiv(float64(e.cumMigr), float64(totalReplicas)))
	e.rec.Append(metrics.SeriesMigrCost, e.cumMigrCost)
	e.rec.Append(metrics.SeriesMigrCostAvg, safeDiv(e.cumMigrCost, float64(e.cumMigr)))
	e.rec.Append(metrics.SeriesLoadImbalance, metrics.RelativeLoadImbalance(loads))
	e.rec.Append(metrics.SeriesPathLength, safeDiv(float64(totalHops), float64(totalQueries)))
	e.rec.Append(metrics.SeriesUnservedFrac, safeDiv(float64(totalUnserved), float64(totalQueries)))
	e.rec.Append(metrics.SeriesAliveServers, float64(numAlive))
	e.rec.Append(metrics.SeriesLostPartitions, float64(e.cluster.LostPartitions()))
	e.rec.Append(metrics.SeriesReplActions, float64(e.epochRepl))
	e.rec.Append(metrics.SeriesMigrActions, float64(e.epochMigr))
	e.rec.Append(metrics.SeriesSuicideActions, float64(e.epochSuicide))
	e.epochRepl, e.epochMigr, e.epochSuicide = 0, 0, 0
	sla := e.cfg.Latency.Stats(hopHist, totalUnserved)
	e.rec.Append(metrics.SeriesSLAFrac, sla.WithinSLA)
	e.rec.Append(metrics.SeriesLatencyMean, sla.MeanMs)
	e.rec.Append(metrics.SeriesLatencyP999, sla.P999Ms)
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
