package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/durable"
	"repro/internal/node"
	"repro/internal/transport"
)

// The ledger times each layer's public calls in isolation: one micro-
// run per row, every row from outside through exported functions. A
// timing row is the mean of its quietest batch (the same estimator as
// the phases' best slice); count rows are exact.

// ledgerBudget is the measured time of one timing row.
const ledgerBudget = 150 * time.Millisecond

// sink keeps results alive so the compiler cannot drop a measured call.
var sink int

// bestBatch runs f in batches of n calls for at least ledgerBudget and
// three batches, and returns the lowest mean nanoseconds per call.
func bestBatch(n int, f func()) float64 {
	best := 0.0
	start := time.Now()
	for b := 0; b < 3 || time.Since(start) < ledgerBudget; b++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		if per := float64(time.Since(t0)) / float64(n); best == 0 || per < best {
			best = per
		}
	}
	return best
}

// allocsPer returns the mean heap allocations of one call of f over n
// calls.
func allocsPer(n int, f func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

func putMessage(valueBytes int) *transport.Message {
	return &transport.Message{
		Kind: node.KindPut, Partition: 17, Hops: 1, Version: 5<<20 | 9,
		Key: []byte("k00001234"), Value: make([]byte, valueBytes),
	}
}

func echo(from string, req *transport.Message) (*transport.Message, error) {
	return &transport.Message{Kind: req.Kind, Value: req.Value}, nil
}

// ledger runs every micro-run and returns the rows. dataRoot is where
// the durable rows put their files.
func ledger(dataRoot string) ([]metric, error) {
	var rows []metric
	add := func(name string, v float64) { rows = append(rows, metric{name, v}) }
	for _, part := range []func(func(string, float64), string) error{ledgerTransport, ledgerDurable, ledgerNode} {
		if err := part(add, dataRoot); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

func ledgerTransport(add func(string, float64), _ string) error {
	for _, sz := range []struct {
		label string
		bytes int
	}{{"64b", 64}, {"1k", 1024}} {
		m := putMessage(sz.bytes)
		buf := make([]byte, 0, 2048)
		var err error
		add("transport.encode_"+sz.label+"_ns", bestBatch(20000, func() {
			buf, err = transport.AppendFrame(buf[:0], transport.FrameRequest, 42, m)
		}))
		if err != nil {
			return err
		}
		add("transport.decode_"+sz.label+"_ns", bestBatch(20000, func() {
			_, _, _, err = transport.DecodeFrame(buf)
		}))
		if err != nil {
			return err
		}
		if sz.bytes == 64 {
			add("transport.frame_overhead_bytes", float64(len(buf)-len(m.Key)-len(m.Value)))
		}
	}

	req := putMessage(64)
	lb := transport.NewLoopback()
	cli, srv := lb.Endpoint("cli"), lb.Endpoint("srv")
	srv.SetHandler(echo)
	var sendErr error
	send := func(tr transport.Transport, addr string) func() {
		return func() {
			if _, err := tr.Send(addr, req); err != nil {
				sendErr = err
			}
		}
	}
	add("transport.loopback_rtt_ns", bestBatch(20000, send(cli, "srv")))
	cli.Close()
	srv.Close()

	server, err := transport.ListenTCP("127.0.0.1:0", echo, transport.TCPOptions{})
	if err != nil {
		return err
	}
	defer server.Close()
	client := transport.NewTCPClient(transport.TCPOptions{})
	defer client.Close()
	one := send(client, server.Addr())
	add("transport.tcp_rtt_us", bestBatch(2000, one)/1e3)
	add("transport.tcp_allocs_per_rtt", allocsPer(2000, one))
	// Eight in flight: eight goroutines each send an eighth of the batch.
	add("transport.tcp_rtt8_us", bestBatch(1, func() {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 500; i++ {
					one()
				}
			}()
		}
		wg.Wait()
	})/4000/1e3)
	return sendErr
}

func ledgerDurable(add func(string, float64), dataRoot string) error {
	dir, err := os.MkdirTemp(dataRoot, "ledger-durable-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	const partitions = 64
	val := make([]byte, 256)
	keys := keyNames(100000)

	// Appends: p50 of single calls, so the compaction every 1024th
	// record does not smear the row; compaction has its own.
	appendRow := func(name string, sync durable.Syncer, n int) error {
		eng, err := durable.Open(durable.Options{Dir: filepath.Join(dir, name), Partitions: partitions, Sync: sync})
		if err != nil {
			return err
		}
		defer eng.Close()
		var h hist
		for i := 0; i < n; i++ {
			t0 := time.Now()
			if err := eng.AppendPut(i%partitions, keys[i], uint64(i+1), val); err != nil {
				return err
			}
			h.record(time.Since(t0))
		}
		add("durable."+name+"_us", us(h.quantile(0.5)))
		if name == "append_nosync" {
			i := n
			add("durable.append_allocs", allocsPer(5000, func() {
				if err := eng.AppendPut(i%partitions, keys[i], uint64(i+1), val); err != nil {
					sink++
				}
				i++
			}))
		}
		return nil
	}
	if err := appendRow("append_nosync", durable.NoSync{}, 30000); err != nil {
		return err
	}
	if err := appendRow("append_fsync", durable.OSSync{}, 300); err != nil {
		return err
	}

	// The floor under append_fsync: a bare write of one record's size
	// plus Sync, same directory.
	f, err := os.Create(filepath.Join(dir, "floor"))
	if err != nil {
		return err
	}
	var h hist
	rec := make([]byte, 300)
	for i := 0; i < 300; i++ {
		t0 := time.Now()
		if _, err := f.Write(rec); err != nil {
			f.Close()
			return err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		h.record(time.Since(t0))
	}
	f.Close()
	add("durable.fsync_floor_us", us(h.quantile(0.5)))

	// Compaction of a 1024-record partition, forced by hand.
	eng, err := durable.Open(durable.Options{Dir: filepath.Join(dir, "compact"), Partitions: 1, CompactEvery: 1 << 30})
	if err != nil {
		return err
	}
	var compact []float64
	for round := 0; round < 5; round++ {
		for i := 0; i < 1024; i++ {
			if err := eng.AppendPut(0, keys[i], uint64(round*1024+i+1), val); err != nil {
				eng.Close()
				return err
			}
		}
		t0 := time.Now()
		if err := eng.Compact(0); err != nil {
			eng.Close()
			return err
		}
		compact = append(compact, float64(time.Since(t0))/1e6)
	}
	eng.Close()
	sort.Float64s(compact)
	add("durable.compact_ms", compact[0])

	// Recovery and space: 100 000 distinct records over 64 partitions
	// with the default compaction threshold leave each partition about
	// two thirds snapshot, one third log.
	recDir := filepath.Join(dir, "recover")
	eng, err = durable.Open(durable.Options{Dir: recDir, Partitions: partitions})
	if err != nil {
		return err
	}
	user := 0
	for i, k := range keys {
		if err := eng.AppendPut(i%partitions, k, uint64(i+1), val); err != nil {
			eng.Close()
			return err
		}
		user += len(k) + len(val)
	}
	if err := eng.Close(); err != nil {
		return err
	}
	var disk int64
	err = filepath.WalkDir(recDir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			disk += info.Size()
		}
		return err
	})
	if err != nil {
		return err
	}
	add("durable.disk_bytes_per_user_byte", float64(disk)/float64(user))
	var recov []float64
	for round := 0; round < 3; round++ {
		t0 := time.Now()
		eng, err := durable.Open(durable.Options{Dir: recDir, Partitions: partitions})
		if err != nil {
			return err
		}
		recov = append(recov, float64(time.Since(t0))/1e6)
		n := 0
		for p := 0; p < partitions; p++ {
			n += len(eng.Recovered(p).Entries)
		}
		eng.Close()
		if n != len(keys) {
			return fmt.Errorf("ledger: recovery restored %d of %d records", n, len(keys))
		}
	}
	sort.Float64s(recov)
	add("durable.recover_ms_per_100k", recov[0])
	return nil
}

// memFleet builds a loopback memory fleet of n nodes and runs idle
// epochs until every partition has two holders (ticks < 0: none, the
// seed placement of one holder per partition stays).
func memFleet(n, partitions, r int, converge bool) (*node.Fleet, error) {
	cfg := node.DefaultConfig(0, nil)
	cfg.Seed = nodeSeed
	cfg.Partitions = partitions
	cfg.ReadQuorum = r
	cfg.ReplicaCapacity = 1 << 30
	f, err := node.NewFleet(n, cfg)
	if err != nil {
		return nil, err
	}
	for e := 0; converge; e++ {
		fewest := n
		for _, hs := range f.Node(0).ReplicaMap() {
			fewest = min(fewest, len(hs))
		}
		if fewest >= 2 {
			break
		}
		if e == maxConvEpochs {
			f.Close()
			return nil, fmt.Errorf("ledger: %d-node fleet did not reach 2 holders per partition", n)
		}
		if err := f.Tick(); err != nil {
			f.Close()
			return nil, err
		}
	}
	return f, nil
}

// primaryKeys returns, for up to want keys, the key name and the node
// that is its partition's primary.
func primaryKeys(f *node.Fleet, want int) (names []string, at []*node.Node) {
	primaries := f.Node(0).Primaries()
	for _, k := range keyNames(want) {
		nd := f.Node(primaries[f.Node(0).PartitionOf(k)])
		names, at = append(names, k), append(at, nd)
	}
	return names, at
}

func ledgerNode(add func(string, float64), _ string) error {
	val := make([]byte, 64)
	var opErr error
	note := func(err error) {
		if err != nil {
			opErr = err
		}
	}

	// One holder per partition: a put at the primary has nobody to sync.
	f1, err := memFleet(3, 64, 1, false)
	if err != nil {
		return err
	}
	names, at := primaryKeys(f1, 4096)
	i := 0
	put := func() {
		note(at[i%len(at)].Put(names[i%len(names)], append([]byte(nil), val...)))
		i++
	}
	add("node.put_1holder_us", bestBatch(2000, put)/1e3)
	f1.Close()

	// Two holders: the same put syncs one replica over loopback. The
	// difference to the row above is the fan-out share of a put.
	f2, err := memFleet(3, 64, 1, true)
	if err != nil {
		return err
	}
	names, at = primaryKeys(f2, 4096)
	i = 0
	add("node.put_2holder_us", bestBatch(2000, put)/1e3)
	add("node.put_allocs", allocsPer(2000, put))
	get := func() {
		_, ok, err := at[i%len(at)].Get(names[i%len(names)])
		if err == nil && !ok {
			err = fmt.Errorf("ledger: key %s not found", names[i%len(names)])
		}
		note(err)
		i++
	}
	add("node.local_get_ns", bestBatch(20000, func() {
		if _, ok := at[i%len(at)].LocalGet(names[i%len(names)]); ok {
			sink++
		}
		i++
	}))
	add("node.get_r1_us", bestBatch(20000, get)/1e3)
	add("node.get_allocs", allocsPer(2000, get))
	var ticks []float64
	for e := 0; e < 20; e++ {
		t0 := time.Now()
		note(f2.Tick())
		ticks = append(ticks, float64(time.Since(t0))/1e6)
	}
	add("node.epoch_ms_3n", median(ticks))
	f2.Close()

	// R=2: the same get probes one other holder's version.
	fr, err := memFleet(3, 64, 2, true)
	if err != nil {
		return err
	}
	names, at = primaryKeys(fr, 4096)
	i = 0
	for range names {
		put()
	}
	add("node.get_r2_us", bestBatch(5000, get)/1e3)
	fr.Close()

	f9, err := memFleet(9, 64, 1, true)
	if err != nil {
		return err
	}
	ticks = ticks[:0]
	for e := 0; e < 20; e++ {
		t0 := time.Now()
		note(f9.Tick())
		ticks = append(ticks, float64(time.Since(t0))/1e6)
	}
	add("node.epoch_ms_9n", median(ticks))
	f9.Close()

	tree := node.NewAETree()
	add("node.aetree_apply_ns", bestBatch(20000, func() {
		tree.Apply(names[i%len(names)], uint64(i), val)
		i++
	}))

	// A full transfer of a 10 000-key partition to a node that holds
	// nothing: one partition, so every key lands in it; no epoch has run,
	// so only the primary holds it. Two targets give two samples.
	fx, err := memFleet(3, 1, 1, false)
	if err != nil {
		return err
	}
	src := fx.Node(fx.Node(0).Primaries()[0])
	for _, k := range keyNames(10000) {
		note(src.Put(k, append([]byte(nil), val...)))
	}
	xfer := 0.0
	for t := 0; t < fx.Len(); t++ {
		if t == src.Self() {
			continue
		}
		t0 := time.Now()
		if !src.TransferPartition(0, t) {
			note(fmt.Errorf("ledger: transfer to node %d did not complete", t))
		}
		if d := float64(time.Since(t0)) / 1e6; xfer == 0 || d < xfer {
			xfer = d
		}
	}
	fx.Close()
	add("node.xfer_full_ms_per_10k", xfer)

	// The committed repair ratios (BENCH_repair.json), from the same
	// functions rfhbench -suite repair calls.
	rc, err := node.MeasureTransferRepair(10000, 100)
	if err != nil {
		return err
	}
	add("node.xfer_delta_ratio_1pct", rc.Ratio)
	add("node.ae_repair_ratio_1key", node.MeasureAERepair(10000, 1).Ratio)
	return opErr
}
