package main

import (
	"encoding/binary"
	"fmt"

	"repro/internal/stats"
)

// spec is one workload: the fleet it runs on, the traffic mix, and how
// the measured time is divided. Every field is fixed per workload; the
// only run-time inputs are -seed and -seconds.
type spec struct {
	name string
	why  string

	nodes      int
	durable    bool // DataDir set: WAL + snapshots, never fsynced (see README, "No fsync workload")
	w, r       int
	aeInterval int

	getPct      int  // share of gets in the op stream, percent
	zipf        bool // zipf θ=0.99 over keys; false = uniform
	keys        int
	valueBytes  int
	opsPerEpoch int

	// serialShare and satShare split -seconds between the two closed-loop
	// phases; what is left is the nominal budget of the rejoin cycles,
	// which are sized by count, not by time.
	serialShare, satShare float64
	rejoinCycles          int
	staleKeys             int // keys overwritten while the victim is down, per cycle
}

// workloads is the benchmark's fixed workload set. BENCHMARK.json
// repeats the names and the why of each.
var workloads = []spec{
	{
		name:  "get-mem-3n",
		why:   "read-mostly zipf traffic on a memory store: codec, TCP round trip, routing and the store read path do all the work and durable does none",
		nodes: 3, w: 1, r: 1,
		getPct: 95, zipf: true, keys: 10000, valueBytes: 64, opsPerEpoch: 5000,
		serialShare: 0.45, satShare: 0.45, rejoinCycles: 15, staleKeys: 1000,
	},
	{
		name:  "put-wal-3n",
		why:   "write-mostly uniform traffic with W=2 on a WAL without fsync: every acked put is two WAL appends, a sync hop and its share of compaction, so durable dominates",
		nodes: 3, durable: true, w: 2, r: 1,
		getPct: 10, keys: 5000, valueBytes: 256, opsPerEpoch: 2000,
		serialShare: 0.45, satShare: 0.45, rejoinCycles: 7, staleKeys: 500,
	},
	{
		name:  "mixed-wal-9n",
		why:   "half reads half writes on 9 nodes with W=2/R=2 and WAL without fsync: almost every op is forwarded and fans out, each epoch costs an 81-message broadcast plus anti-entropy",
		nodes: 9, durable: true, w: 2, r: 2, aeInterval: 4,
		getPct: 50, zipf: true, keys: 4000, valueBytes: 1024, opsPerEpoch: 1000,
		serialShare: 0.45, satShare: 0.45, rejoinCycles: 5, staleKeys: 500,
	},
	{
		name:  "rejoin-wal-3n",
		why:   "read-mostly traffic on the largest WAL-backed data set, then the most and the largest crash/overwrite/restart cycles: recovery, re-injection, transfer sessions and anti-entropy do the work",
		nodes: 3, durable: true, w: 2, r: 1, aeInterval: 2,
		getPct: 90, zipf: true, keys: 20000, valueBytes: 256, opsPerEpoch: 5000,
		serialShare: 0.35, satShare: 0.35, rejoinCycles: 7, staleKeys: 2000,
	},
}

func findWorkload(name string) (spec, bool) {
	for _, s := range workloads {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// op is one generated request.
type op struct {
	key int
	put bool
}

// opStream is a seeded request generator. Each client goroutine owns
// one (stream 0 is the serial client, set-up and the traced run).
type opStream struct {
	rng    *stats.RNG
	zipf   *stats.Zipf
	keys   int
	getPct int
}

// keyStride scatters zipf ranks over the key space so the hot keys do
// not share a name prefix (and therefore do not cluster in one
// partition). Odd and far from any key count the workloads use.
const keyStride = 2654435761

func newOpStream(s spec, seed uint64, stream int) *opStream {
	rng := stats.NewRNG(seed).Stream(uint64(stream) + 1)
	g := &opStream{rng: rng, keys: s.keys, getPct: s.getPct}
	if s.zipf {
		g.zipf = stats.NewZipf(rng.Split(), s.keys, 0.99)
	}
	return g
}

func (g *opStream) next() op {
	var k int
	if g.zipf != nil {
		k = int(uint64(g.zipf.Next()) * keyStride % uint64(g.keys))
	} else {
		k = g.rng.Intn(g.keys)
	}
	return op{key: k, put: g.rng.Intn(100) >= g.getPct}
}

// keyNames precomputes the key strings so the measured loops format
// nothing.
func keyNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("k%08d", i)
	}
	return names
}

// valueHeader is the self-describing prefix of every value: key index
// and a per-key write sequence. A get is checked against it.
const valueHeader = 16

// fillValue writes value (key, seq) into buf: the header, then a
// repeating byte derived from both.
func fillValue(buf []byte, key int, seq uint64) {
	binary.LittleEndian.PutUint64(buf[0:8], uint64(key))
	binary.LittleEndian.PutUint64(buf[8:16], seq)
	fill := byte(uint64(key)*31 + seq)
	for i := valueHeader; i < len(buf); i++ {
		buf[i] = fill
	}
}

// checkValue verifies that val is a value fillValue produced for key,
// of the workload's length.
func checkValue(val []byte, key, wantLen int) error {
	if len(val) != wantLen {
		return fmt.Errorf("value length %d, want %d", len(val), wantLen)
	}
	if got := binary.LittleEndian.Uint64(val[0:8]); got != uint64(key) {
		return fmt.Errorf("value belongs to key %d, want %d", got, key)
	}
	seq := binary.LittleEndian.Uint64(val[8:16])
	fill := byte(uint64(key)*31 + seq)
	if val[valueHeader] != fill || val[len(val)-1] != fill {
		return fmt.Errorf("value body corrupt for key %d seq %d", key, seq)
	}
	return nil
}
