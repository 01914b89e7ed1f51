package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"sort"
	"testing"
	"time"

	"repro/internal/node"
	"repro/internal/stats"
)

// The histogram must place any quantile within 1 % of the exact value
// of the sorted samples, over five decades.
func TestHistQuantileAccuracy(t *testing.T) {
	rng := stats.NewRNG(11)
	var h hist
	samples := make([]float64, 200000)
	for i := range samples {
		// Log-uniform between 200 ns and 20 ms.
		ns := 200 * math.Pow(10, 5*rng.Float64())
		samples[i] = math.Floor(ns)
		h.record(time.Duration(samples[i]))
	}
	sort.Float64s(samples)
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999} {
		want := samples[int(q*float64(len(samples)))-1]
		got := h.quantile(q)
		if math.Abs(got-want)/want > 0.01 {
			t.Errorf("q%g: histogram %.1f ns, sorted samples %.1f ns", q, got, want)
		}
	}
	if got := new(hist).quantile(0.5); got != 0 {
		t.Errorf("empty histogram p50 = %g, want 0", got)
	}
}

func TestHistBucketsAreContiguous(t *testing.T) {
	prev := -1
	for _, ns := range []uint64{0, 1, 127, 128, 129, 255, 256, 1000, 1 << 20, 1<<20 + 1<<13, 1 << 40, 1 << 50} {
		i := histIndex(ns)
		if i < prev || i >= histBuckets {
			t.Fatalf("histIndex(%d) = %d after %d", ns, i, prev)
		}
		if lo, width := histBounds(i); i < histBuckets-1 && (float64(ns) < lo || float64(ns) >= lo+width) {
			t.Errorf("%d ns filed in bucket %d = [%g, %g)", ns, i, lo, lo+width)
		}
		prev = i
	}
}

// The quiet-slice estimator picks the lowest latency or the highest
// rate, skips slices without samples, and reports median and spread.
func TestBestSliceSelection(t *testing.T) {
	lat := summarise([]float64{22, 0, 20, 30, 21}, true)
	if lat.best != 20 || lat.median != 21.5 || lat.slices != 4 {
		t.Errorf("latency summary %+v, want best 20 median 21.5 over 4 slices", lat)
	}
	if want := 100 * (30 - 20) / 21.5; math.Abs(lat.spreadPct-want) > 1e-9 {
		t.Errorf("spread %.3f, want %.3f", lat.spreadPct, want)
	}
	rate := summarise([]float64{5000, 6100, 5900}, false)
	if rate.best != 6100 || rate.median != 5900 {
		t.Errorf("rate summary %+v, want best 6100 median 5900", rate)
	}
	if got := summarise([]float64{0, 0}, true); got.slices != 0 || got.best != 0 {
		t.Errorf("summary of empty slices %+v", got)
	}

	// A slice with fewer than minSliceSamples samples may not win.
	sl := newSliceSet(2, time.Second)
	for i := 0; i < minSliceSamples-1; i++ {
		sl.record(100*time.Millisecond, 5*time.Microsecond, false)
	}
	for i := 0; i < 100; i++ {
		sl.record(1500*time.Millisecond, 50*time.Microsecond, false)
	}
	sl.record(2500*time.Millisecond, time.Microsecond, false) // after the last slice: not timed
	by := quantileBySlice(sl.get, 0.5)
	if by[0] != 0 || math.Abs(by[1]-50000)/50000 > 0.01 {
		t.Errorf("per-slice p50 %v, want [0 ~50000]", by)
	}
	if ops := sl.opsPerSecBySlice(); ops[0] != minSliceSamples-1 || ops[1] != 100 {
		t.Errorf("per-slice ops/s %v", ops)
	}
}

// One put over TCP, entering at node 0, forwarded to primary 1, synced
// in parallel to holders 0 and 2; and one get answered at the entry
// node. Times in ns.
func syntheticSpans() []span {
	put, sync := node.KindPut, node.KindSync
	return []span{
		{Op: 7, Type: spanOp, Node: clientNode, Peer: -1, Kind: put, Start: 0, End: 1000},
		{Op: 7, Type: spanSend, Node: clientNode, Peer: 0, Kind: put, Bytes: 300, Start: 10, End: 990},
		{Op: 7, Type: spanHandle, Node: 0, Peer: -1, Kind: put, Hops: 0, Start: 100, End: 900},
		{Op: 7, Type: spanSend, Node: 0, Peer: 1, Kind: put, Hops: 1, Bytes: 310, Start: 150, End: 850},
		{Op: 7, Type: spanHandle, Node: 1, Peer: -1, Kind: put, Hops: 1, Start: 200, End: 800},
		{Op: 7, Type: spanSend, Node: 1, Peer: 0, Kind: sync, Bytes: 320, Start: 300, End: 600},
		{Op: 7, Type: spanSend, Node: 1, Peer: 2, Kind: sync, Bytes: 320, Start: 310, End: 700},
		{Op: 7, Type: spanHandle, Node: 0, Peer: -1, Kind: sync, Start: 400, End: 500},
		{Op: 7, Type: spanHandle, Node: 2, Peer: -1, Kind: sync, Start: 450, End: 650},

		{Op: 8, Type: spanOp, Node: clientNode, Peer: -1, Kind: node.KindGet, Start: 2000, End: 2100},
		{Op: 8, Type: spanSend, Node: clientNode, Peer: 0, Kind: node.KindGet, Bytes: 120, Start: 2005, End: 2095},
		{Op: 8, Type: spanHandle, Node: 0, Peer: -1, Kind: node.KindGet, Start: 2040, End: 2060},

		// An epoch's broadcast belongs to no request.
		{Op: epochOp, Type: spanSend, Node: 0, Peer: 1, Kind: node.KindStats, Bytes: 999, Start: 3000, End: 3100},
	}
}

func TestSpanNestingAndSelfTime(t *testing.T) {
	got := analyse(syntheticSpans())
	if got.ops != 2 || got.gets != 1 || got.puts != 1 {
		t.Fatalf("ops %d gets %d puts %d, want 2 1 1", got.ops, got.gets, got.puts)
	}
	check := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
	check("msgs_per_op", got.msgsPerOp, 5.0/2)
	check("wire_bytes_per_op", got.wireBytesPerOp, (300+310+320+320+120)/2.0)
	check("get_local_share", got.getLocalShare, 1)
	check("get_hops", got.getHops, 0)
	check("put_sync_fanout", got.putSyncFanout, 2)
	// Hop = send minus remote handler: client sends (980-800, 90-20).
	check("client_hop_us", got.clientHopUs, (0.180+0.070)/2)
	check("forward_hop_us", got.forwardHopUs, (700-600)/1e3)
	// Sync hops: 300-100 and 390-200.
	check("sync_hop_us", got.syncHopUs, (0.200+0.190)/2)
	// Self = handler minus what its own sends cover. Entry handlers:
	// 800-700 for the put, 20 for the get.
	check("entry_self_us", got.entrySelfUs, (0.100+0.020)/2)
	// Primary: 600 long, its two syncs cover 300..700 = 400.
	check("primary_self_us", got.primarySelfUs, 0.200)
	check("holder_self_us", got.holderSelfUs, (0.100+0.200)/2)
	// Sequential steps: client, forward, one group of parallel syncs;
	// the put waits for the primary's append and one round of holders'.
	check("put_seq_sends", got.putSeqSends, 3)
	check("put_seq_appends", got.putSeqAppends, 2)
	check("get_seq_sends", got.getSeqSends, 1)
}

func TestCoveredAndGroups(t *testing.T) {
	ivs := [][2]int64{{10, 20}, {15, 30}, {40, 50}, {45, 48}}
	if got := covered(0, 100, ivs); got != 30 {
		t.Errorf("covered = %d, want 30", got)
	}
	if got := covered(18, 42, ivs); got != 14 {
		t.Errorf("clipped covered = %d, want 14", got)
	}
	if got := groups(ivs); got != 2 {
		t.Errorf("groups = %d, want 2", got)
	}
	if got := groups(nil); got != 0 {
		t.Errorf("groups(nil) = %d", got)
	}
}

// The op stream is a function of (workload, seed, stream): equal inputs
// give equal ops, another seed or stream gives others, the mix matches
// getPct and zipf traffic is skewed.
func TestOpStreamDeterminism(t *testing.T) {
	s, _ := findWorkload("get-mem-3n")
	draw := func(seed uint64, stream, n int) []op {
		g := newOpStream(s, seed, stream)
		out := make([]op, n)
		for i := range out {
			out[i] = g.next()
		}
		return out
	}
	a, b := draw(5, 0, 20000), draw(5, 0, 20000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d differs between two streams of one seed: %+v vs %+v", i, a[i], b[i])
		}
	}
	same := func(x, y []op) int {
		n := 0
		for i := range x {
			if x[i] == y[i] {
				n++
			}
		}
		return n
	}
	if n := same(a, draw(6, 0, 20000)); n > len(a)/2 {
		t.Errorf("seeds 5 and 6 agree on %d of %d ops", n, len(a))
	}
	if n := same(a, draw(5, 1, 20000)); n > len(a)/2 {
		t.Errorf("streams 0 and 1 agree on %d of %d ops", n, len(a))
	}
	puts, freq := 0, map[int]int{}
	for _, o := range a {
		if o.key < 0 || o.key >= s.keys {
			t.Fatalf("key %d out of range", o.key)
		}
		if o.put {
			puts++
		}
		freq[o.key]++
	}
	if share := float64(puts) / float64(len(a)); math.Abs(share-0.05) > 0.01 {
		t.Errorf("put share %.3f, want 0.05", share)
	}
	hottest := 0
	for _, n := range freq {
		hottest = max(hottest, n)
	}
	if hottest < len(a)/50 {
		t.Errorf("hottest key drew %d of %d ops: not zipf", hottest, len(a))
	}

	buf := make([]byte, s.valueBytes)
	fillValue(buf, 42, 9)
	if err := checkValue(buf, 42, s.valueBytes); err != nil {
		t.Errorf("checkValue of a fresh value: %v", err)
	}
	if err := checkValue(buf, 43, s.valueBytes); err == nil {
		t.Error("checkValue accepted another key's value")
	}
	buf[len(buf)-1] ^= 1
	if err := checkValue(buf, 42, s.valueBytes); err == nil {
		t.Error("checkValue accepted a corrupt value")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	v := []float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6}
	if q1, q3 := quartiles(v); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of three = %g, %g, want 1, 4", q1, q3)
	}
}

// scaled shrinks a workload by div: fewer keys, shorter epochs, one
// small rejoin cycle. Fleet shape, quorums and mix are untouched.
func (s spec) scaled(div int) spec {
	s.keys = max(s.keys/div, 64)
	s.opsPerEpoch = max(s.opsPerEpoch/div, 100)
	s.staleKeys = max(s.staleKeys/div, 16)
	s.rejoinCycles = 1
	return s
}

func testEnv(t *testing.T) env {
	return env{dataRoot: t.TempDir(), outDir: t.TempDir(), log: io.Discard}
}

// Every workload, at a twentieth of its size for one second: no failed
// operation, and exactly the declared end-to-end metrics, none of them
// zero.
func TestSmokeEndToEnd(t *testing.T) {
	for _, s := range workloads {
		res, err := measureEndToEnd(s.scaled(20), 3, 1, testEnv(t))
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if res.failed != 0 || res.attempted == 0 {
			t.Errorf("%s: %d of %d operations failed, first: %v", s.name, res.failed, res.attempted, res.firstErr)
		}
		if err := res.matches(endToEnd); err != nil {
			t.Error(err)
		}
		for _, m := range res.metrics {
			if !(m.value > 0) {
				t.Errorf("%s: %s = %g, want > 0", s.name, m.name, m.value)
			}
		}
	}
}

// The traced run on the cheapest workload: the declared per-layer
// metrics, identical counts on both passes (measurePerLayer fails
// otherwise), and a trace file a JSON reader accepts.
func TestSmokePerLayer(t *testing.T) {
	s, _ := findWorkload("rejoin-wal-3n")
	e := testEnv(t)
	res, err := measurePerLayer(s.scaled(20), 3, 1, e)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 {
		t.Errorf("%d of %d operations failed, first: %v", res.failed, res.attempted, res.firstErr)
	}
	if err := res.matches(perLayer); err != nil {
		t.Error(err)
	}
	if res.get("trace.msgs_per_op") <= 0 || res.get("node.xfer_delta_ratio_1pct") <= 1 {
		t.Errorf("implausible rows: msgs_per_op %g, xfer_delta_ratio_1pct %g", res.get("trace.msgs_per_op"), res.get("node.xfer_delta_ratio_1pct"))
	}
	buf, err := os.ReadFile(e.outDir + "/trace-rejoin-wal-3n.json")
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(buf, &spans); err != nil || len(spans) == 0 {
		t.Errorf("trace file: %d spans, err %v", len(spans), err)
	}
}

// BENCHMARK.json at the repository root must declare what this package
// measures: same workloads, same metrics, same units, directions and
// bounds.
func TestBenchmarkJSONMatches(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if os.IsNotExist(err) {
		t.Skip("no BENCHMARK.json beside the benchmark directory")
	}
	if err != nil {
		t.Fatal(err)
	}
	type jdef struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jdef `json:"end_to_end"`
		PerLayer   []jdef `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d built in", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: declared %q, built in %q", i, w.Name, workloads[i].name)
		}
	}
	compare := func(kind string, got []jdef, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics declared, %d built in", kind, len(got), len(want))
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
				t.Errorf("%s %d: declared %+v, built in %+v", kind, i, g, d)
			}
		}
	}
	compare("end_to_end", doc.EndToEnd, endToEnd)
	compare("per_layer", doc.PerLayer, perLayer)
}
