package main

import (
	"fmt"
	"io"
	"path/filepath"
	"time"
)

// setupRepeats is how many times a run sets its fleet up; setup_s is
// the median, the last fleet is the one measured.
const setupRepeats = 3

// metric is one reported number; metrics.go has its unit.
type metric struct {
	name  string
	value float64
}

// result is what one run of one workload reports.
type result struct {
	workload          string
	attempted, failed int64
	firstErr          error
	metrics           []metric
}

func (res *result) add(name string, value float64) {
	res.metrics = append(res.metrics, metric{name, value})
}

func (res *result) get(name string) float64 {
	for _, m := range res.metrics {
		if m.name == name {
			return m.value
		}
	}
	return 0
}

// env is where a run may write and what it may say.
type env struct {
	dataRoot string    // durable nodes get their directories here
	outDir   string    // traces are written here
	log      io.Writer // diagnostics: slice spreads, set-up detail
}

func us(ns float64) float64 { return ns / 1e3 }

// phaseSplit turns -seconds into the two phase lengths.
func phaseSplit(s spec, seconds float64) (serial, sat time.Duration) {
	total := time.Duration(seconds * float64(time.Second))
	return time.Duration(float64(total) * s.serialShare), time.Duration(float64(total) * s.satShare)
}

// setUp performs the set-up `repeats` times, closes all fleets but the
// last and returns it with the median set-up time.
func setUp(s spec, seed uint64, e env, rec *recorder, repeats int) (*run, setupStats, error) {
	var r *run
	var st setupStats
	var secs []float64
	for i := 0; i < repeats; i++ {
		if r != nil {
			r.close()
		}
		var err error
		r, st, err = newRun(s, seed, e.dataRoot, rec)
		if err != nil {
			return nil, st, err
		}
		secs = append(secs, st.seconds)
		fmt.Fprintf(e.log, "%s: set-up %d: %.3f s, %d convergence epochs, %.2f holders/partition, decisions %+v, %.0f B/key resident\n",
			s.name, i+1, st.seconds, st.convEpochs, st.holdersMean, st.decisions, st.residentBytes/float64(s.keys))
	}
	st.seconds = median(secs)
	return r, st, nil
}

// logSlices prints a per-slice series and its summary as a diagnostic.
func logSlices(w io.Writer, label string, vals []float64, st sliceStat) {
	fmt.Fprintf(w, "  %-22s best %.1f  median %.1f  spread %.0f%%  slices", label, st.best, st.median, st.spreadPct)
	for _, v := range vals {
		fmt.Fprintf(w, " %.1f", v)
	}
	fmt.Fprintln(w)
}

// scale converts a slice of nanosecond values to microseconds.
func scale(ns []float64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = us(v)
	}
	return out
}

// clientRows holds the numbers of the two closed-loop phases that both
// the end-to-end and the per-layer report draw from.
type clientRows struct {
	getP50, putP50, getP99, putP99      float64 // serial, µs
	serialOpsPerS                       float64
	opsPerS, opsPerSMedian, sliceSpread float64 // saturation
	satGetP50, satPutP50, satPutP99     float64 // µs
	allocsPerOp                         float64
}

// closedLoop runs the serial and the saturation phase on r.
func closedLoop(r *run, serial, sat time.Duration, e env) (clientRows, error) {
	var c clientRows
	sp, err := r.serialPhase(serial, newOpStream(r.s, r.seed, 0))
	if err != nil {
		return c, err
	}
	getBy, putBy := scale(quantileBySlice(sp.sl.get, 0.5)), scale(quantileBySlice(sp.sl.put, 0.5))
	gs, pst := summarise(getBy, true), summarise(putBy, true)
	fmt.Fprintf(e.log, "%s: serial phase: %d ops in %v, %v in %d inline ticks\n", r.s.name, sp.ops, sp.busy+sp.tickTime, sp.tickTime, int(sp.ops)/r.s.opsPerEpoch)
	logSlices(e.log, "get p50 µs", getBy, gs)
	logSlices(e.log, "put p50 µs", putBy, pst)
	gt, pt := sp.sl.total()
	c.getP50, c.putP50 = gs.best, pst.best
	// A phase too short (or a mix too lopsided) to fill any slice with
	// minSliceSamples of one kind falls back to the whole phase.
	if gs.slices == 0 {
		c.getP50 = us(gt.quantile(0.5))
	}
	if pst.slices == 0 {
		c.putP50 = us(pt.quantile(0.5))
	}
	c.getP99, c.putP99 = us(gt.quantile(0.99)), us(pt.quantile(0.99))
	c.serialOpsPerS = float64(sp.ops) / sp.busy.Seconds()

	ap, err := r.saturationPhase(sat)
	if err != nil {
		return c, err
	}
	opsBy := ap.sl.opsPerSecBySlice()
	os := summarise(opsBy, false)
	fmt.Fprintf(e.log, "%s: saturation phase: %d ops in %v, ticks took %v\n", r.s.name, ap.ops, ap.busy, ap.tickTime)
	logSlices(e.log, "ops/s", opsBy, os)
	gt, pt = ap.sl.total()
	c.opsPerS, c.opsPerSMedian, c.sliceSpread = os.best, os.median, os.spreadPct
	c.satGetP50, c.satPutP50, c.satPutP99 = us(gt.quantile(0.5)), us(pt.quantile(0.5)), us(pt.quantile(0.99))
	c.allocsPerOp = float64(ap.mallocs) / float64(ap.ops)
	return c, nil
}

// measureEndToEnd is the untraced run: set-up, serial phase,
// saturation phase, rejoin cycles, read-back. It reports the eight
// end-to-end metrics.
func measureEndToEnd(s spec, seed uint64, seconds float64, e env) (result, error) {
	res := result{workload: s.name}
	r, st, err := setUp(s, seed, e, nil, setupRepeats)
	if err != nil {
		return res, err
	}
	defer r.close()
	serial, sat := phaseSplit(s, seconds)
	c, err := closedLoop(r, serial, sat, e)
	if err != nil {
		return res, err
	}
	rj, err := r.rejoinCycles()
	if err != nil {
		return res, err
	}
	fmt.Fprintf(e.log, "%s: rejoin cycles: epochs while down %.4f, restart to converged %.4f s in %v epochs, %d maintenance bytes for %d stale keys\n", s.name, rj.down, rj.back, rj.ticks, rj.bytes, rj.staleKeys)
	r.readBack()

	res.add("setup_s", st.seconds)
	res.add("ops_per_s", c.opsPerS)
	res.add("get_p50_us", c.getP50)
	res.add("put_p50_us", c.putP50)
	res.add("allocs_per_op", c.allocsPerOp)
	res.add("resident_bytes_per_key", st.residentBytes/float64(s.keys))
	res.add("rejoin_s", rj.quietCycle())
	res.add("rejoin_bytes_per_stale_key", float64(rj.bytes)/float64(rj.staleKeys))
	res.attempted, res.failed, res.firstErr = r.attempted.Load(), r.failed.Load(), r.firstErr
	return res, nil
}

// tracedPass replays 2*ops serial requests in blocks that alternate
// between recorder on and recorder off, so the host's slow and fast
// spells fall on both halves alike. It returns the spans of the traced
// half and by how many percent a traced request took longer than an
// untraced one (inline ticks excluded, as in the serial phase).
func tracedPass(r *run, ops int) ([]span, float64, error) {
	g := newOpStream(r.s, r.seed, traceStream)
	r.rec.reset(ops * 8)
	defer r.rec.on.Store(false)
	block := max(ops/traceBlocks, 1)
	var traced, plain time.Duration
	for i := 0; i < 2*ops; i++ {
		on := (i/block)%2 == 0
		r.rec.on.Store(on)
		tick0, t0 := r.tickTime, time.Now()
		if err := r.serialOp(g.next(), i, nil); err != nil {
			return nil, 0, err
		}
		if d := time.Since(t0) - (r.tickTime - tick0); on {
			traced += d
		} else {
			plain += d
		}
	}
	return r.rec.spans, 100 * float64(traced-plain) / float64(plain), nil
}

// traceOps caps the requests of one traced pass (a workload with short
// epochs traces four epochs' worth); traceBlocks is how many traced
// blocks the pass is cut into.
const (
	traceOps    = 20000
	traceBlocks = 20
)

// traceStream is the op stream of the traced pass, apart from those of
// set-up, the serial client and the saturation workers.
const traceStream = 1 << 20

// traceShare is the part of -seconds each closed-loop phase gets in a
// traced run, which also has two set-ups, two traced passes and the
// ledger to fit in.
const traceShare = 0.25

// measurePerLayer is the traced run. After the same set-up as the
// untraced run it replays a fixed number of serial requests with every
// transport wrapped, then runs both closed-loop phases untraced for the
// client rows and the tracing overhead, then repeats set-up and traced
// pass on a second fleet to prove the count rows repeat, then runs the
// ledger and prints what of the serial latency the ledger's unit costs
// do not explain.
func measurePerLayer(s spec, seed uint64, seconds float64, e env) (result, error) {
	res := result{workload: s.name}
	ops := min(traceOps, 4*s.opsPerEpoch)
	var sums [2]traceSummary
	var c clientRows
	var st setupStats
	var overheadPct float64
	// onePass sets a traced fleet up and traces it; the first pass also
	// runs the closed-loop phases and the read-back on its fleet.
	onePass := func(pass int) error {
		r, pst, err := setUp(s, seed, e, newRecorder(), 1)
		if err != nil {
			return err
		}
		defer r.close()
		spans, overhead, err := tracedPass(r, ops)
		if err != nil {
			return err
		}
		sums[pass] = analyse(spans)
		if pass == 0 {
			st, overheadPct = pst, overhead
			path := filepath.Join(e.outDir, "trace-"+s.name+".json")
			if err := writeTrace(path, spans); err != nil {
				return err
			}
			fmt.Fprintf(e.log, "%s: traced pass: %d ops, %d spans, written to %s\n", s.name, ops, len(spans), path)
			phase := time.Duration(seconds * traceShare * float64(time.Second))
			if c, err = closedLoop(r, phase, phase, e); err != nil {
				return err
			}
			r.readBack()
		}
		res.attempted += r.attempted.Load()
		res.failed += r.failed.Load()
		if res.firstErr == nil {
			res.firstErr = r.firstErr
		}
		return nil
	}
	for pass := range sums {
		if err := onePass(pass); err != nil {
			return res, err
		}
	}
	t := sums[0]
	if t.counts() != sums[1].counts() {
		return res, fmt.Errorf("%s: trace counts differ between two passes of seed %d: %v and %v", s.name, seed, t.counts(), sums[1].counts())
	}

	res.add("client.get_p99_us", c.getP99)
	res.add("client.put_p99_us", c.putP99)
	res.add("client.serial_ops_per_s", c.serialOpsPerS)
	res.add("client.sat_get_p50_us", c.satGetP50)
	res.add("client.sat_put_p50_us", c.satPutP50)
	res.add("client.sat_put_p99_us", c.satPutP99)
	res.add("client.ops_per_s_median_slice", c.opsPerSMedian)
	res.add("client.slice_spread_pct", c.sliceSpread)
	res.add("client.conv_epochs", float64(st.convEpochs))
	res.add("client.holders_per_partition", st.holdersMean)

	res.add("trace.msgs_per_op", t.msgsPerOp)
	res.add("trace.wire_bytes_per_op", t.wireBytesPerOp)
	res.add("trace.get_local_share", t.getLocalShare)
	res.add("trace.get_hops", t.getHops)
	res.add("trace.put_sync_fanout", t.putSyncFanout)
	res.add("trace.client_hop_us", t.clientHopUs)
	res.add("trace.forward_hop_us", t.forwardHopUs)
	res.add("trace.sync_hop_us", t.syncHopUs)
	res.add("trace.entry_self_us", t.entrySelfUs)
	res.add("trace.primary_self_us", t.primarySelfUs)
	res.add("trace.holder_self_us", t.holderSelfUs)
	res.add("trace.overhead_pct", overheadPct)

	rows, err := ledger(e.dataRoot)
	if err != nil {
		return res, err
	}
	res.metrics = append(res.metrics, rows...)

	// The ledger's account of one serial request: every send that cannot
	// overlap another costs one round trip of the fleet's transport, a
	// get reads the store once, a put waits for its WAL appends.
	rtt := res.get("transport.tcp_rtt_us")
	appendUs := 0.0
	if s.durable {
		appendUs = res.get("durable.append_nosync_us")
	}
	getModel := t.getSeqSends*rtt + res.get("node.local_get_ns")/1e3
	putModel := t.putSeqSends*rtt + t.putSeqAppends*appendUs
	fmt.Fprintf(e.log, "%s: ledger model: get %.2f sends x %.1f µs + read = %.1f µs; put %.2f sends x %.1f µs + %.2f appends x %.1f µs = %.1f µs\n",
		s.name, t.getSeqSends, rtt, getModel, t.putSeqSends, rtt, t.putSeqAppends, appendUs, putModel)
	res.add("ledger.get_residual_us", c.getP50-getModel)
	res.add("ledger.put_residual_us", c.putP50-putModel)
	return res, nil
}
