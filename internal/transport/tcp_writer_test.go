package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// These tests pin what a writer without a goroutine of its own can get
// wrong: a pooled reply slot reaching the wrong exchange, a stalled
// peer holding senders or memory hostage, a lone request paying for
// coalescing or a burst not getting it, and the hop's allocation count.

// watchdog fails the test with every goroutine's stack if fn has not
// returned within d: a hang is the failure mode these tests hunt.
func watchdog(t *testing.T, d time.Duration, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(d):
		buf := make([]byte, 1<<20)
		t.Fatalf("still running after %v\n%s", d, buf[:runtime.Stack(buf, true)])
	}
}

// waitGoroutines waits for the goroutine count to come back to base.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines: %d before, %d after\n%s", base, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// liveConn returns the client's current connection to addr, if any.
func liveConn(t *TCP, addr string) *muxConn {
	p, err := t.peer(addr)
	if err != nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.conn
}

// TestBurstsSurviveKilledConnections is the reply-slot test. Bursts of
// concurrent exchanges get their replies out of order; in some rounds
// the connection is cut under the burst from one side or the other,
// and now and then a request stalls past IOTimeout. Every Send must
// return, and a Send that returns a reply must return its own: a
// recycled slot that a late deliver still held would hand it to a
// stranger.
func TestBurstsSurviveKilledConnections(t *testing.T) {
	const (
		rounds = 2000
		burst  = 8
	)
	var served atomic.Uint64
	b, err := ListenTCP("127.0.0.1:0", func(from string, req *Message) (*Message, error) {
		switch n := served.Add(1); {
		case n%211 == 0:
			time.Sleep(30 * time.Millisecond) // past the client's IOTimeout
		case n%3 == 0:
			runtime.Gosched() // let later requests overtake
		}
		return &Message{Kind: req.Kind, Value: req.Value}, nil
	}, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a := NewTCPClient(TCPOptions{IOTimeout: 20 * time.Millisecond, Retries: 0})
	defer a.Close()

	var replies, failures atomic.Int64
	watchdog(t, 2*time.Minute, func() {
		for r := 0; r < rounds; r++ {
			var wg sync.WaitGroup
			for g := 0; g < burst; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					var token [8]byte
					binary.BigEndian.PutUint64(token[:], uint64(r*burst+g))
					resp, err := a.Send(b.Addr(), &Message{Kind: 1, Value: token[:]})
					switch {
					case err != nil:
						failures.Add(1)
					case resp == nil:
						t.Errorf("round %d sender %d: Send returned neither a reply nor an error", r, g)
					case !bytes.Equal(resp.Value, token[:]):
						t.Errorf("round %d sender %d received the reply to exchange %x", r, g, resp.Value)
					default:
						replies.Add(1)
					}
				}(g)
			}
			switch {
			case r%7 == 3: // cut from the client side, under the burst
				runtime.Gosched()
				if mc := liveConn(a, b.Addr()); mc != nil {
					mc.conn.Close()
				}
			case r%11 == 5: // cut from the server side
				runtime.Gosched()
				b.mu.Lock()
				for conn := range b.inbound {
					conn.Close()
				}
				b.mu.Unlock()
			}
			wg.Wait()
		}
	})
	if replies.Load() == 0 || failures.Load() == 0 {
		t.Fatalf("%d replies, %d failures: the test exercised only one outcome", replies.Load(), failures.Load())
	}
	t.Logf("%d replies, %d failed exchanges", replies.Load(), failures.Load())
}

// TestStalledReaderBoundsSenders: a peer that accepts and never reads.
// The frames queued behind the stuck write stay under the byte bound,
// every sender — writing, queued behind the bound, or waiting for a
// reply — fails within IOTimeout plus slack, and Close leaves nothing
// behind.
func TestStalledReaderBoundsSenders(t *testing.T) {
	base := runtime.NumGoroutine()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	held := make(chan net.Conn, 1)
	go func() {
		if conn, err := ln.Accept(); err == nil {
			held <- conn // accepted, never read
		}
	}()

	const (
		senders   = 96
		ioTimeout = 400 * time.Millisecond
	)
	a := NewTCPClient(TCPOptions{IOTimeout: ioTimeout, Retries: 0})
	value := make([]byte, 256<<10) // 96 of these overrun any loopback socket buffer
	frame := len(value) + 64

	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := a.Send(ln.Addr().String(), &Message{Kind: 1, Value: value}); err == nil {
				t.Error("a Send to a peer that never reads succeeded")
			}
		}()
	}
	stop := make(chan struct{})
	var maxQueued int
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for {
			if mc := liveConn(a, ln.Addr().String()); mc != nil {
				mc.wr.mu.Lock()
				if n := len(mc.wr.buf); n > maxQueued {
					maxQueued = n
				}
				mc.wr.mu.Unlock()
			}
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()
	watchdog(t, 30*time.Second, wg.Wait)
	if d := time.Since(start); d > ioTimeout+2*time.Second {
		t.Errorf("the last sender failed after %v, want within IOTimeout %v plus slack", d, ioTimeout)
	}
	close(stop)
	sampler.Wait()

	// A sender may append while less than the bound is queued, so the
	// most ever queued is the bound plus one frame.
	if maxQueued == 0 || maxQueued >= writeQueueBytes+frame {
		t.Errorf("saw %d bytes queued behind the stalled write, want 0 < n < %d", maxQueued, writeQueueBytes+frame)
	}
	watchdog(t, 10*time.Second, func() { a.Close() })
	(<-held).Close()
	waitGoroutines(t, base)
}

// TestStalledReaderBoundsWorkers is the same from the serving side: a
// client pipelines requests whose replies it never reads. The workers
// answering it — one stuck in the write, the rest queued behind the
// bound — must all be released when the write deadline passes, and the
// connection dropped.
func TestStalledReaderBoundsWorkers(t *testing.T) {
	base := runtime.NumGoroutine()
	const ioTimeout = 400 * time.Millisecond
	reply := make([]byte, 256<<10)
	var answered atomic.Int64
	b, err := ListenTCP("127.0.0.1:0", func(from string, req *Message) (*Message, error) {
		answered.Add(1)
		return &Message{Kind: req.Kind, Value: reply}, nil
	}, TCPOptions{IOTimeout: ioTimeout})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const requests = 96
	var out []byte
	for id := uint64(1); id <= requests; id++ {
		if out, err = AppendFrame(out, FrameRequest, id, &Message{Kind: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := conn.Write(out); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	maxQueued, dropped := 0, false
	for time.Since(start) < ioTimeout+5*time.Second {
		b.mu.Lock()
		dropped = answered.Load() == requests && len(b.inbound) == 0
		for _, wr := range b.inbound {
			wr.mu.Lock()
			if n := len(wr.buf); n > maxQueued {
				maxQueued = n
			}
			wr.mu.Unlock()
		}
		b.mu.Unlock()
		if dropped {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if !dropped {
		t.Fatalf("connection to a client that never reads still open after %v", time.Since(start))
	}
	if frame := len(reply) + 64; maxQueued == 0 || maxQueued >= writeQueueBytes+frame {
		t.Errorf("saw %d bytes queued behind the stalled write, want 0 < n < %d", maxQueued, writeQueueBytes+frame)
	}
	// Close waits for every worker: it returning is the proof that none
	// is still blocked on the dead connection.
	watchdog(t, 10*time.Second, func() { b.Close() })
	conn.Close()
	waitGoroutines(t, base)
}

// countingListener counts the Write calls on the connections it
// accepts.
type countingListener struct {
	net.Listener
	writes atomic.Int64
}

type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{conn, &l.writes}, nil
}

func (c countingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// TestWritesPerFrame counts the server's socket writes: a serial
// sender's replies are written one write each, with nothing to wait
// for; eight concurrent senders' replies share writes.
func TestWritesPerFrame(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := &countingListener{Listener: ln}
	b := newTCP(cl, echoHandler, TCPOptions{})
	b.wg.Add(1)
	go b.acceptLoop()
	defer b.Close()
	a := NewTCPClient(TCPOptions{})
	defer a.Close()

	send := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := a.Send(b.Addr(), &Message{Kind: 1, Value: []byte("x")}); err != nil {
				t.Error(err)
				return
			}
		}
	}
	const frames = 2000
	send(frames)
	if got := cl.writes.Load(); got != frames {
		t.Errorf("serial sender: %d replies took %d writes, want one write per frame", frames, got)
	}

	// On one P nothing overlaps a write by accident: replies share
	// writes only because the flusher sees company and yields to it.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cl.writes.Store(0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			send(frames / 8)
		}()
	}
	wg.Wait()
	if got := cl.writes.Load(); got >= frames/2 {
		t.Errorf("eight concurrent senders: %d replies took %d writes, want fewer than half as many writes as frames", frames, got)
	} else {
		t.Logf("eight concurrent senders: %d replies in %d writes", frames, got)
	}
}

// sinkConn is a net.Conn that swallows writes, counting them.
type sinkConn struct {
	net.Conn // nil: only the methods below are called
	writes   int
	bytes    bytes.Buffer
}

func (c *sinkConn) Write(b []byte) (int, error)      { c.writes++; return c.bytes.Write(b) }
func (c *sinkConn) SetWriteDeadline(time.Time) error { return nil }
func (c *sinkConn) Close() error                     { return nil }

// TestWriterFlatCombining drives a connWriter directly: a lone sender
// writes every frame itself at once; senders that find a write in
// progress leave their frame to the flusher; and an unframeable
// message is refused without disturbing the stream or pinning the
// buffer it grew.
func TestWriterFlatCombining(t *testing.T) {
	sink := &sinkConn{}
	w := newConnWriter(sink, time.Minute, func(error) {})
	msg := &Message{Kind: 1, Value: []byte("v")}
	for id := uint64(1); id <= 100; id++ {
		if err := w.send(FrameRequest, id, msg); err != nil {
			t.Fatal(err)
		}
	}
	if sink.writes != 100 {
		t.Fatalf("a lone sender's 100 frames took %d writes, want 100", sink.writes)
	}

	// A flusher is "in progress": frames pile up unwritten, then one
	// flush carries them all.
	w.mu.Lock()
	w.flushing = true
	w.mu.Unlock()
	for id := uint64(101); id <= 150; id++ {
		if err := w.send(FrameRequest, id, msg); err != nil {
			t.Fatal(err)
		}
	}
	if sink.writes != 100 {
		t.Fatalf("frames sent during a flush were written by their senders (%d writes)", sink.writes)
	}
	if err := w.flush(); err != nil {
		t.Fatal(err)
	}
	if sink.writes != 101 {
		t.Fatalf("50 queued frames took %d writes, want 1", sink.writes-100)
	}

	huge := &Message{Value: make([]byte, MaxFrame+1)}
	if err := w.send(FrameRequest, 151, huge); !errors.Is(err, errFrameSize) {
		t.Fatalf("oversized message: got %v, want errFrameSize", err)
	}
	w.mu.Lock()
	if cap(w.buf) > maxIdleBuf || cap(w.spare) > maxIdleBuf {
		t.Errorf("writer kept %d/%d bytes of capacity after an oversized message", cap(w.buf), cap(w.spare))
	}
	w.mu.Unlock()
	big := &Message{Value: make([]byte, 2<<20)}
	if err := w.send(FrameRequest, 152, big); err != nil {
		t.Fatal(err)
	}
	w.mu.Lock()
	if cap(w.buf) > maxIdleBuf || cap(w.spare) > maxIdleBuf {
		t.Errorf("writer kept %d/%d bytes of capacity after a 2 MiB frame", cap(w.buf), cap(w.spare))
	}
	w.mu.Unlock()

	// The stream is exactly the 151 framed messages, in order.
	stream := sink.bytes.Bytes()
	for id := uint64(1); id <= 152; id++ {
		if id == 151 {
			continue
		}
		n := frameHeaderLen + int(binary.BigEndian.Uint32(stream[10:14]))
		_, got, _, err := DecodeFrame(stream[:n])
		if err != nil || got != id {
			t.Fatalf("frame %d of the stream: id %d, err %v", id, got, err)
		}
		stream = stream[n:]
	}
	if len(stream) != 0 {
		t.Fatalf("%d stray bytes after the last frame", len(stream))
	}
}

// gatedConn blocks every Write until the test lets it through.
type gatedConn struct {
	sinkConn
	started chan struct{} // one token per Write begun
	gate    chan struct{} // one token lets one Write finish
}

func (c *gatedConn) Write(b []byte) (int, error) {
	c.started <- struct{}{}
	<-c.gate
	return len(b), nil
}

// TestBackPressureBlocksAndReleases: with a write stuck and the bound
// queued behind it, the next sender blocks; it is let in the moment
// the flusher takes the queue for its next write — not one write later.
func TestBackPressureBlocksAndReleases(t *testing.T) {
	conn := &gatedConn{started: make(chan struct{}, 8), gate: make(chan struct{})}
	w := newConnWriter(conn, time.Minute, func(error) {})
	msg := &Message{Value: make([]byte, writeQueueBytes/4)}
	flusher := make(chan error, 1)
	go func() { flusher <- w.send(FrameRequest, 1, msg) }()
	<-conn.started                       // write 1 is stuck in the socket
	for id := uint64(2); id <= 5; id++ { // four riders fill the queue to the bound
		if err := w.send(FrameRequest, id, msg); err != nil {
			t.Fatal(err)
		}
	}
	blocked := make(chan error, 1)
	go func() { blocked <- w.send(FrameRequest, 6, msg) }()
	select {
	case err := <-blocked:
		t.Fatalf("a sender got past a full queue (err %v)", err)
	case <-time.After(100 * time.Millisecond):
	}
	conn.gate <- struct{}{} // write 1 completes; write 2 takes the queue and sticks
	<-conn.started
	select {
	case err := <-blocked:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the blocked sender was not released when the queue was taken for writing")
	}
	conn.gate <- struct{}{} // write 2
	<-conn.started
	conn.gate <- struct{}{} // write 3 carries the released sender's frame
	if err := <-flusher; err != nil {
		t.Fatal(err)
	}
}

// TestWriteDeadlineIsPerWrite: every socket write carries a deadline
// IOTimeout ahead, set just before it.
func TestWriteDeadlineIsPerWrite(t *testing.T) {
	conn := &deadlineConn{}
	w := newConnWriter(conn, time.Minute, func(error) {})
	for id := uint64(1); id <= 3; id++ {
		before := time.Now()
		if err := w.send(FrameRequest, id, &Message{}); err != nil {
			t.Fatal(err)
		}
		if conn.sets != int(id) {
			t.Fatalf("%d deadlines set for %d writes", conn.sets, id)
		}
		if d := conn.deadline.Sub(before); d < time.Minute || d > time.Minute+10*time.Second {
			t.Fatalf("write %d ran under a deadline %v ahead, want IOTimeout (1m)", id, d)
		}
	}
}

type deadlineConn struct {
	sinkConn
	sets     int
	deadline time.Time
}

func (c *deadlineConn) SetWriteDeadline(d time.Time) error {
	c.sets++
	c.deadline = d
	return nil
}

// TestFailedExchangeFailsOthersFast: one exchange running out its
// IOTimeout kills the connection, and the other exchanges waiting on
// it fail at that moment instead of running out their own budgets.
func TestFailedExchangeFailsOthersFast(t *testing.T) {
	release := make(chan struct{})
	b, err := ListenTCP("127.0.0.1:0", func(from string, req *Message) (*Message, error) {
		<-release
		return nil, nil
	}, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	defer close(release)
	a := NewTCPClient(TCPOptions{IOTimeout: time.Second, Retries: 0})
	defer a.Close()

	first := make(chan error, 1)
	go func() {
		_, err := a.Send(b.Addr(), &Message{Kind: 1})
		first <- err
	}()
	time.Sleep(500 * time.Millisecond) // the first exchange is half way through its budget
	start := time.Now()
	_, err = a.Send(b.Addr(), &Message{Kind: 1})
	if err == nil {
		t.Fatal("an exchange on a killed connection succeeded")
	}
	if d := time.Since(start); d > 800*time.Millisecond {
		t.Fatalf("second exchange failed after %v: it waited out its own IOTimeout instead of failing with the connection", d)
	}
	if err := <-first; err == nil {
		t.Fatal("the stalled exchange succeeded")
	}
}

// TestRoundTripAllocations guards the hop's allocation count: the
// response body and its Message at the sender, the reply Message in
// the handler, and one spare. A reply channel per Send or a closure
// per request would show up here.
func TestRoundTripAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	client, addr, req := tcpEchoPair(t)
	allocs := testing.AllocsPerRun(2000, func() {
		if _, err := client.Send(addr, req); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Fatalf("%.1f allocations per echo round trip, want at most 4", allocs)
	}
	t.Logf("%.1f allocations per echo round trip", allocs)
}

// TestOversizedFrames: a response too large to frame comes back as a
// StatusError reply on the same exchange, and the connection lives on;
// a request too large to frame fails at once, without a retry.
func TestOversizedFrames(t *testing.T) {
	b, err := ListenTCP("127.0.0.1:0", func(from string, req *Message) (*Message, error) {
		if req.Kind == 9 {
			return &Message{Kind: 9, Value: make([]byte, MaxFrame+1)}, nil
		}
		return &Message{Kind: req.Kind, Value: req.Key}, nil
	}, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a := NewTCPClient(TCPOptions{Retries: 3, RetryBackoff: 5 * time.Second})
	defer a.Close()

	resp, err := a.Send(b.Addr(), &Message{Kind: 9})
	if err != nil {
		t.Fatalf("oversized response: Send failed: %v", err)
	}
	if resp.Status != StatusError || !bytes.Contains(resp.Value, []byte("MaxFrame")) {
		t.Fatalf("oversized response came back as %+v, want a StatusError naming MaxFrame", resp)
	}
	before := liveConn(a, b.Addr())

	start := time.Now()
	_, err = a.Send(b.Addr(), &Message{Kind: 1, Value: make([]byte, MaxFrame+1)})
	if !errors.Is(err, errFrameSize) {
		t.Fatalf("oversized request: got %v, want errFrameSize", err)
	}
	if d := time.Since(start); d > 4*time.Second {
		t.Fatalf("oversized request took %v: it was retried", d)
	}

	resp, err = a.Send(b.Addr(), &Message{Kind: 1, Key: []byte("still here")})
	if err != nil || string(resp.Value) != "still here" {
		t.Fatalf("send after the oversized frames: %+v, %v", resp, err)
	}
	if liveConn(a, b.Addr()) != before {
		t.Fatal("an unframeable message cost the connection")
	}
}

// TestReplyEncodedBeforeRequestRecycled: a handler may answer with the
// request's own memory — here the pooled request Message itself, which
// is zeroed when recycled, so a reply encoded after the recycle would
// come back empty. Concurrent senders keep the pools turning over
// while replies are encoded.
func TestReplyEncodedBeforeRequestRecycled(t *testing.T) {
	a, b, bAddr := transportPair(t, "tcp")
	b.SetHandler(func(from string, req *Message) (*Message, error) {
		return req, nil
	})
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				key := []byte(fmt.Sprintf("key-%d-%d", g, i))
				val := bytes.Repeat([]byte{byte(g), byte(i)}, 100+i)
				resp, err := a.Send(bAddr, &Message{Kind: 7, Key: key, Value: val})
				if err != nil {
					t.Error(err)
					return
				}
				if resp.Kind != 7 || !bytes.Equal(resp.Key, key) || !bytes.Equal(resp.Value, val) {
					t.Errorf("sender %d round %d: reply does not echo the request", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
