package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/node"
	"repro/internal/transport"
)

// Span types. An op span is the client's view of one request (or of
// one epoch tick); a send span is one transport.Send seen from the
// sender; a handle span is one handler call seen from the receiver.
const (
	spanOp = iota
	spanSend
	spanHandle
)

// clientNode is the Node of spans recorded at the load generator.
const clientNode = -1

// epochOp is the Op of spans caused by an epoch tick rather than by a
// client request.
const epochOp = -1

// span is one recorded interval. The traced run is serial — one
// request in the system at a time — so spans carry no parent pointer:
// the parent of a span is the innermost span of the same op that
// contains it in time on the node that caused it (see analyse).
type span struct {
	Op    int   `json:"op"`    // index of the client op this belongs to, epochOp for ticks
	Type  int   `json:"type"`  // spanOp, spanSend, spanHandle
	Node  int   `json:"node"`  // roster index it was recorded on, clientNode for the client
	Peer  int   `json:"peer"`  // send: destination roster index; otherwise -1
	Kind  uint8 `json:"kind"`  // message kind (node.Kind*)
	Hops  uint8 `json:"hops"`  // the message's forward count
	Bytes int   `json:"bytes"` // send: request + response frame bytes
	Start int64 `json:"start"` // ns since the recorder was created
	End   int64 `json:"end"`
}

// recorder collects spans in memory. It is shared by the wrappers of
// every node and of the client; while off, the wrappers pass straight
// through.
type recorder struct {
	on    atomic.Bool
	op    atomic.Int64 // the op index new spans are filed under
	epoch time.Time

	mu      sync.Mutex
	spans   []span
	scratch []byte
	index   map[string]int // transport address -> roster index
}

func newRecorder() *recorder {
	r := &recorder{epoch: time.Now(), index: make(map[string]int)}
	r.op.Store(epochOp)
	return r
}

func (r *recorder) setAddrs(addrs []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, a := range addrs {
		r.index[a] = i
	}
}

func (r *recorder) reset(capacity int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = make([]span, 0, capacity)
}

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// frameBytes measures what req and resp cost on the wire by encoding
// them the way the TCP transport does.
func (r *recorder) frameBytes(req, resp *transport.Message) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, m := range []*transport.Message{req, resp} {
		if m == nil {
			continue
		}
		buf, err := transport.AppendFrame(r.scratch[:0], transport.FrameRequest, 0, m)
		if err != nil {
			continue // oversized frame: Send reports it, nothing to count
		}
		n += len(buf)
		r.scratch = buf
	}
	return n
}

// tracedTransport wraps one endpoint: every Send and every handler
// call becomes a span. It is the transport handed to node.New and to
// the client, so the layers are observed from outside.
type tracedTransport struct {
	inner transport.Transport
	rec   *recorder
	node  int
}

func (r *recorder) wrap(i int, tr transport.Transport) transport.Transport {
	return &tracedTransport{inner: tr, rec: r, node: i}
}

func (t *tracedTransport) Addr() string { return t.inner.Addr() }
func (t *tracedTransport) Close() error { return t.inner.Close() }

func (t *tracedTransport) Send(peer string, req *transport.Message) (*transport.Message, error) {
	if !t.rec.on.Load() {
		return t.inner.Send(peer, req)
	}
	start := time.Since(t.rec.epoch)
	resp, err := t.inner.Send(peer, req)
	end := time.Since(t.rec.epoch)
	t.rec.mu.Lock()
	to, ok := t.rec.index[peer]
	t.rec.mu.Unlock()
	if !ok {
		to = -1
	}
	t.rec.add(span{
		Op: int(t.rec.op.Load()), Type: spanSend, Node: t.node, Peer: to,
		Kind: req.Kind, Hops: uint8(req.Hops), Bytes: t.rec.frameBytes(req, resp),
		Start: int64(start), End: int64(end),
	})
	return resp, err
}

func (t *tracedTransport) SetHandler(h transport.Handler) {
	t.inner.SetHandler(func(from string, req *transport.Message) (*transport.Message, error) {
		if !t.rec.on.Load() {
			return h(from, req)
		}
		kind, hops := req.Kind, uint8(req.Hops) // req is only borrowed for the call
		start := time.Since(t.rec.epoch)
		resp, err := h(from, req)
		end := time.Since(t.rec.epoch)
		t.rec.add(span{
			Op: int(t.rec.op.Load()), Type: spanHandle, Node: t.node, Peer: -1,
			Kind: kind, Hops: hops, Start: int64(start), End: int64(end),
		})
		return resp, err
	})
}

// traceSummary is what the traced run reports. The first five rows are
// counts: for one seed they must repeat exactly.
type traceSummary struct {
	ops, gets, puts int

	msgsPerOp      float64
	wireBytesPerOp float64
	getLocalShare  float64
	getHops        float64
	putSyncFanout  float64

	clientHopUs, forwardHopUs, syncHopUs     float64 // medians
	entrySelfUs, primarySelfUs, holderSelfUs float64 // medians

	// Mean sequential steps per op, for the ledger model: sends that
	// cannot overlap (parallel fan-out counts once) and the WAL appends
	// a put waits for.
	getSeqSends, putSeqSends, putSeqAppends float64
}

// counts returns the rows that must repeat exactly for a seed.
func (t traceSummary) counts() [5]float64 {
	return [5]float64{t.msgsPerOp, t.wireBytesPerOp, t.getLocalShare, t.getHops, t.putSyncFanout}
}

// covered returns how much of [start,end] the given intervals cover.
// Intervals must be sorted by start.
func covered(start, end int64, ivs [][2]int64) int64 {
	var sum int64
	at := start
	for _, iv := range ivs {
		lo, hi := max(iv[0], at), min(iv[1], end)
		if hi > lo {
			sum += hi - lo
			at = hi
		}
	}
	return sum
}

// groups counts the maximal runs of overlapping intervals: sends that
// run in parallel wait once. Intervals must be sorted by start.
func groups(ivs [][2]int64) int {
	n := 0
	var reach int64
	for i, iv := range ivs {
		if i == 0 || iv[0] >= reach {
			n++
		}
		reach = max(reach, iv[1])
	}
	return n
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	if len(v)%2 == 1 {
		return v[len(v)/2]
	}
	return (v[len(v)/2-1] + v[len(v)/2]) / 2
}

// analyse derives the per-layer rows from a serial traced run. Spans
// of one op nest by time containment: a send's remote side is the
// handle span of the same kind on its peer inside the send's interval,
// and a handler's children are the sends its node made inside the
// handler's interval. Self time is a handler's duration minus what its
// child sends cover; hop time is a send's duration minus its remote
// handler's.
func analyse(spans []span) traceSummary {
	byOp := make(map[int][]span)
	for _, s := range spans {
		if s.Op != epochOp {
			byOp[s.Op] = append(byOp[s.Op], s)
		}
	}
	var t traceSummary
	var msgs, bytes, localGets, fwdGets, syncs int
	var getSeq, putSeq, putApp int
	var clientHop, fwdHop, syncHop, entrySelf, primarySelf, holderSelf []float64
	for _, ss := range byOp {
		sort.Slice(ss, func(i, j int) bool { return ss[i].Start < ss[j].Start })
		var root *span
		for i := range ss {
			if ss[i].Type == spanOp {
				root = &ss[i]
			}
		}
		if root == nil {
			continue
		}
		t.ops++
		isPut := root.Kind == node.KindPut
		if isPut {
			t.puts++
		} else {
			t.gets++
		}
		forwards := 0
		sendsFrom := make(map[int][][2]int64) // sender -> its send intervals
		syncGroupsIn := [][2]int64(nil)
		for i := range ss {
			s := &ss[i]
			if s.Type != spanSend {
				continue
			}
			msgs++
			bytes += s.Bytes
			sendsFrom[s.Node] = append(sendsFrom[s.Node], [2]int64{s.Start, s.End})
			// The remote side of this send.
			var remote *span
			for j := range ss {
				h := &ss[j]
				if h.Type == spanHandle && h.Node == s.Peer && h.Kind == s.Kind &&
					h.Start >= s.Start && h.End <= s.End {
					remote = h
					break
				}
			}
			hop := float64(s.End - s.Start)
			if remote != nil {
				hop -= float64(remote.End - remote.Start)
			}
			switch {
			case s.Node == clientNode:
				clientHop = append(clientHop, hop/1e3)
			case s.Kind == node.KindGet || s.Kind == node.KindPut:
				forwards++
				fwdHop = append(fwdHop, hop/1e3)
			case s.Kind == node.KindSync:
				if isPut {
					syncs++
					syncGroupsIn = append(syncGroupsIn, [2]int64{s.Start, s.End})
				}
				syncHop = append(syncHop, hop/1e3)
			case s.Kind == node.KindVer:
				syncHop = append(syncHop, hop/1e3)
			}
		}
		seq := 0
		for _, ivs := range sendsFrom {
			seq += groups(ivs)
		}
		if isPut {
			putSeq += seq
			putApp += 1 + groups(syncGroupsIn)
		} else {
			getSeq += seq
			fwdGets += forwards
			if forwards == 0 {
				localGets++
			}
		}
		// Handler self times.
		for i := range ss {
			h := &ss[i]
			if h.Type != spanHandle {
				continue
			}
			self := float64(h.End-h.Start-covered(h.Start, h.End, within(sendsFrom[h.Node], h))) / 1e3
			switch {
			case (h.Kind == node.KindGet || h.Kind == node.KindPut) && h.Hops == 0:
				entrySelf = append(entrySelf, self)
			case h.Kind == node.KindGet || h.Kind == node.KindPut:
				primarySelf = append(primarySelf, self)
			case h.Kind == node.KindSync || h.Kind == node.KindVer:
				holderSelf = append(holderSelf, self)
			}
		}
	}
	if t.ops == 0 {
		return t
	}
	t.msgsPerOp = float64(msgs) / float64(t.ops)
	t.wireBytesPerOp = float64(bytes) / float64(t.ops)
	if t.gets > 0 {
		t.getLocalShare = float64(localGets) / float64(t.gets)
		t.getHops = float64(fwdGets) / float64(t.gets)
		t.getSeqSends = float64(getSeq) / float64(t.gets)
	}
	if t.puts > 0 {
		t.putSyncFanout = float64(syncs) / float64(t.puts)
		t.putSeqSends = float64(putSeq) / float64(t.puts)
		t.putSeqAppends = float64(putApp) / float64(t.puts)
	}
	t.clientHopUs, t.forwardHopUs, t.syncHopUs = median(clientHop), median(fwdHop), median(syncHop)
	t.entrySelfUs, t.primarySelfUs, t.holderSelfUs = median(entrySelf), median(primarySelf), median(holderSelf)
	return t
}

// within returns the intervals that lie inside span h.
func within(ivs [][2]int64, h *span) [][2]int64 {
	var out [][2]int64
	for _, iv := range ivs {
		if iv[0] >= h.Start && iv[1] <= h.End {
			out = append(out, iv)
		}
	}
	return out
}

// writeTrace dumps the spans as JSON for offline reading.
func writeTrace(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
