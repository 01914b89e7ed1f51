package transport

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// TCPOptions tunes the TCP transport. Zero values select the
// defaults; see DefaultTCPOptions.
type TCPOptions struct {
	// DialTimeout bounds connection establishment (default 2s).
	DialTimeout time.Duration
	// IOTimeout bounds one request/response exchange end to end, and
	// individually bounds every socket write (default 5s).
	IOTimeout time.Duration
	// Retries is how many times a failed Send is re-attempted on a
	// fresh connection before giving up (default 2, i.e. up to three
	// attempts total).
	Retries int
	// RetryBackoff is the sleep before the first retry; each further
	// retry doubles it (default 50ms). The sleep is cancelled by Close.
	RetryBackoff time.Duration
}

// DefaultTCPOptions returns the default timeouts.
func DefaultTCPOptions() TCPOptions {
	return TCPOptions{
		DialTimeout:  2 * time.Second,
		IOTimeout:    5 * time.Second,
		Retries:      2,
		RetryBackoff: 50 * time.Millisecond,
	}
}

func (o TCPOptions) withDefaults() TCPOptions {
	d := DefaultTCPOptions()
	if o.DialTimeout <= 0 {
		o.DialTimeout = d.DialTimeout
	}
	if o.IOTimeout <= 0 {
		o.IOTimeout = d.IOTimeout
	}
	if o.Retries < 0 {
		o.Retries = d.Retries
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = d.RetryBackoff
	}
	return o
}

// Per-connection sizes. A connection owns one bufio.Reader and a pair
// of write buffers that start empty and grow to the burst they carry.
const (
	// readBufSize takes a burst of eight 1 KiB-value frames (9 KiB) in
	// one read; larger bodies bypass the buffer. Measured 64 / 16 /
	// 4 KiB: resident_bytes_per_key 1098 / 1020 / 1000 on get-mem-3n
	// and 11871 / 10053 / 9598 on mixed-wal-9n (144 connections),
	// tcp_rtt8_us 3.1 / 3.1 / 3.15 and get_p50_us 11.0 / 11.0 / 11.4:
	// 16 KiB keeps most of the memory and all of the coalescing.
	readBufSize = 16 << 10
	// writeQueueBytes bounds the frames queued behind a write in
	// progress: a sender that finds this much queued blocks until the
	// flusher has written it.
	writeQueueBytes = 256 << 10
	// maxIdleBuf is the most capacity a write buffer (or a pooled codec
	// buffer, see putBuf) keeps between uses. Keeping 64 KiB saves 5 %
	// resident_bytes_per_key on mixed-wal-9n but re-grows the buffer on
	// every burst of concurrent ships: +2.5 MB allocated per crash cycle
	// on get-mem-3n, which pulls a GC into its timed rejoin epochs.
	maxIdleBuf = 1 << 20
)

// TCP is the real-socket transport: v2 mux frames (versioned header +
// correlation ID) over one persistent connection per peer. Any number
// of Sends to the same peer proceed concurrently — each registers a
// correlation ID in the connection's pending map, encodes its frame
// into the connection's write buffer and flushes it unless another
// sender already is (see connWriter), and a single reader goroutine
// matches response IDs back to their waiters. Failed exchanges redial
// with bounded exponential backoff; both the backoff sleep and an
// in-flight dial are cancelled promptly by Close.
//
// A TCP created with ListenTCP also accepts inbound connections and
// serves its Handler on them, dispatching each request to a parked
// worker so slow handlers never stall a connection's read loop;
// NewTCPClient creates a send-only endpoint (used by rfhctl).
type TCP struct {
	opts TCPOptions
	ln   net.Listener // nil for client-only endpoints

	dialCtx    context.Context // cancelled on Close; aborts in-flight dials
	cancelDial context.CancelFunc
	closeCh    chan struct{} // closed on Close; cancels backoff sleeps and parked workers

	handler atomic.Pointer[Handler] // never nil; points at a nil Handler until one is set
	peers   sync.Map                // addr -> *muxPeer; read on every Send, written once per peer

	mu      sync.Mutex
	inbound map[net.Conn]*connWriter
	closed  bool

	tasks taskPool
	wg    sync.WaitGroup // every transport goroutine registers here
}

var _ Transport = (*TCP)(nil)

func newTCP(ln net.Listener, h Handler, opts TCPOptions) *TCP {
	t := &TCP{
		opts: opts.withDefaults(), ln: ln,
		closeCh: make(chan struct{}),
		inbound: make(map[net.Conn]*connWriter),
	}
	t.SetHandler(h)
	t.dialCtx, t.cancelDial = context.WithCancel(context.Background())
	t.tasks.t = t
	t.tasks.idle = make(chan chan task, idleWorkers)
	return t
}

// ListenTCP binds addr (e.g. "127.0.0.1:0") and serves h on inbound
// connections. Use SetHandler later if h must reference state that
// needs the transport's address first.
func ListenTCP(addr string, h Handler, opts TCPOptions) (*TCP, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	t := newTCP(ln, h, opts)
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// NewTCPClient returns a send-only TCP endpoint: no listener, no
// inbound traffic. Addr returns "".
func NewTCPClient(opts TCPOptions) *TCP {
	return newTCP(nil, nil, opts)
}

// Addr implements Transport.
func (t *TCP) Addr() string {
	if t.ln == nil {
		return ""
	}
	return t.ln.Addr().String()
}

// SetHandler implements Transport.
func (t *TCP) SetHandler(h Handler) { t.handler.Store(&h) }

// acceptLoop accepts inbound connections until the listener closes.
func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.wg.Add(1)
		go t.serveConn(conn)
	}
}

// serveConn reads request frames on one inbound connection until it
// drops, dispatching each to the worker pool. Requests from one peer
// are served concurrently and may complete out of order; the
// correlation ID echoed on each response frame lets the sender match
// replies. A frame that fails header validation (wrong version,
// unknown type, oversized) drops the connection: the stream can no
// longer be trusted to be in sync.
func (t *TCP) serveConn(conn net.Conn) {
	defer t.wg.Done()
	defer conn.Close()
	wr := newConnWriter(conn, t.opts.IOTimeout, func(error) { conn.Close() })
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.inbound[conn] = wr
	t.mu.Unlock()
	defer func() {
		wr.stop(errWriterStopped)
		t.mu.Lock()
		delete(t.inbound, conn)
		t.mu.Unlock()
	}()

	from := conn.RemoteAddr().String()
	br := bufio.NewReaderSize(conn, readBufSize)
	var hdr [frameHeaderLen]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return
		}
		ftype, id, n, err := parseFrameHeader(hdr[:])
		if err != nil || ftype != FrameRequest {
			return
		}
		body := getBuf()
		if cap(*body) < int(n) {
			*body = make([]byte, n)
		}
		*body = (*body)[:n]
		if _, err := io.ReadFull(br, *body); err != nil {
			putBuf(body)
			return
		}
		wr.busy.Add(1)
		t.tasks.run(task{from: from, id: id, body: body, wr: wr})
	}
}

// task is one inbound request on its way to a worker: the pooled body
// buffer, which the worker owns, and the connection to answer on.
type task struct {
	from string
	id   uint64
	body *[]byte
	wr   *connWriter
}

// serveRequest decodes and handles one inbound request, then writes
// the response frame. The pooled request is released only after the
// response is encoded, because handlers may return replies aliasing
// the request's key/value bytes.
func (t *TCP) serveRequest(k task) {
	req := getMsg()
	var resp *Message
	if err := DecodeMessageInto(req, *k.body); err != nil {
		resp = errorReply(req, fmt.Errorf("bad request body: %w", err))
	} else if h := *t.handler.Load(); h == nil {
		resp = errorReply(req, fmt.Errorf("endpoint %s has no handler", t.Addr()))
	} else {
		r, herr := h(k.from, req)
		switch {
		case herr != nil:
			resp = errorReply(req, herr)
		case r == nil:
			resp = &Message{Kind: req.Kind}
		default:
			resp = r
		}
	}
	// A response too large to frame is answered with the error in its
	// place; any other failed send means the connection is going down.
	if err := k.wr.send(FrameResponse, k.id, resp); errors.Is(err, errFrameSize) {
		//lint:ignore rfhlint/errsink a failed write already closed the connection, which fails the sender's exchange
		_ = k.wr.send(FrameResponse, k.id, errorReply(req, err))
	}
	k.wr.busy.Add(-1)
	putMsg(req)
	putBuf(k.body)
}

// Send implements Transport: one multiplexed exchange on the pooled
// connection to peer, redialling with backoff on failure. Sends to the
// same peer do not serialise; each gets its own correlation ID.
func (t *TCP) Send(peer string, req *Message) (*Message, error) {
	p, err := t.peer(peer)
	if err != nil {
		return nil, err
	}
	backoff := t.opts.RetryBackoff
	var lastErr error
	for attempt := 0; attempt <= t.opts.Retries; attempt++ {
		if attempt > 0 {
			// The backoff sleep must not hold up shutdown: Close
			// cancels it through closeCh.
			timer := acquireTimer(backoff)
			select {
			case <-timer.C:
			case <-t.closeCh:
				releaseTimer(timer)
				return nil, ErrClosed
			}
			releaseTimer(timer)
			backoff *= 2
		}
		resp, err := p.exchange(req)
		if err == nil {
			return resp, nil
		}
		if errors.Is(err, ErrClosed) || errors.Is(err, errFrameSize) {
			return nil, err
		}
		lastErr = err
	}
	return nil, fmt.Errorf("%w: %s after %d attempts: %v", ErrUnreachable, peer, t.opts.Retries+1, lastErr)
}

// peer returns (creating if needed) the mux peer for addr. A known
// peer is found without a lock; a closed transport's peers hold no
// connection and cannot dial one, so their Sends fail with ErrClosed.
func (t *TCP) peer(addr string) (*muxPeer, error) {
	if p, ok := t.peers.Load(addr); ok {
		return p.(*muxPeer), nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, ErrClosed
	}
	p, _ := t.peers.LoadOrStore(addr, &muxPeer{t: t, addr: addr})
	return p.(*muxPeer), nil
}

// Close implements Transport: stops the listener, cancels in-flight
// dials and backoff sleeps, drops every connection, and waits for all
// transport goroutines (accept loop, per-connection readers, request
// workers) to exit — after Close returns the transport owns no
// goroutines.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	conns := make([]net.Conn, 0, len(t.inbound))
	//lint:ignore rfhlint/detrange collecting connections to close; order does not affect any state
	for conn := range t.inbound {
		conns = append(conns, conn)
	}
	t.mu.Unlock()
	close(t.closeCh)
	t.cancelDial()
	if t.ln != nil {
		t.ln.Close()
	}
	t.peers.Range(func(_, p any) bool {
		p.(*muxPeer).shutdown()
		return true
	})
	for _, conn := range conns {
		conn.Close()
	}
	t.wg.Wait()
	return nil
}

// muxPeer owns the outbound multiplexed connection to one peer
// address, redialling lazily after failures.
type muxPeer struct {
	t    *TCP
	addr string

	mu   sync.Mutex
	conn *muxConn // live connection; nil before first dial and after failure
}

// muxConn is one live multiplexed connection: a reader goroutine
// matching response correlation IDs against the pending map, and any
// number of in-flight exchanges registered in it, each writing its own
// request through wr.
type muxConn struct {
	peer *muxPeer
	conn net.Conn
	wr   *connWriter

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan *Message
	err     error // non-nil once the connection has failed
}

// slotPool recycles reply slots, the one-message channels exchanges
// wait on for their outcome: the response, or nil when the connection
// failed first. Whoever removes a slot from the pending map — deliver,
// or fail's sweep — sends on it exactly once, so an exchange that has
// received owns its slot alone again and returns it to the pool; a slot
// whose outcome was never collected is left to the garbage collector,
// never reused.
var slotPool = sync.Pool{
	New: func() any { return make(chan *Message, 1) },
}

// get returns the live connection, dialling a fresh one if needed.
// Holding p.mu across the dial serialises concurrent Sends during
// connection establishment — they all need the same connection anyway.
func (p *muxPeer) get() (*muxConn, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.conn != nil {
		return p.conn, nil
	}
	t := p.t
	d := net.Dialer{Timeout: t.opts.DialTimeout}
	conn, err := d.DialContext(t.dialCtx, "tcp", p.addr)
	if err != nil {
		if t.dialCtx.Err() != nil {
			return nil, ErrClosed
		}
		return nil, err
	}
	mc := &muxConn{peer: p, conn: conn, pending: make(map[uint64]chan *Message)}
	mc.wr = newConnWriter(conn, t.opts.IOTimeout, mc.fail)
	// Starting the reader must not race Close's wg.Wait: re-check
	// closed under t.mu before the Add.
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		conn.Close()
		return nil, ErrClosed
	}
	t.wg.Add(1)
	t.mu.Unlock()
	go mc.readLoop()
	p.conn = mc
	return mc, nil
}

// clear detaches a failed connection so the next Send redials.
func (p *muxPeer) clear(mc *muxConn) {
	p.mu.Lock()
	if p.conn == mc {
		p.conn = nil
	}
	p.mu.Unlock()
}

// shutdown (Close path) kills the live connection, if any.
func (p *muxPeer) shutdown() {
	p.mu.Lock()
	mc := p.conn
	p.mu.Unlock()
	if mc != nil {
		mc.fail(ErrClosed)
	}
}

// exchange runs one request/response: register a reply slot under a
// fresh correlation ID, write the frame, wait for the reader to
// deliver the matching response or the connection to fail.
func (p *muxPeer) exchange(req *Message) (*Message, error) {
	mc, err := p.get()
	if err != nil {
		return nil, err
	}
	slot := slotPool.Get().(chan *Message)
	id, err := mc.register(slot)
	if err != nil {
		slotPool.Put(slot)
		return nil, err
	}
	mc.wr.busy.Add(1)
	defer mc.wr.busy.Add(-1)
	if err := mc.wr.send(FrameRequest, id, req); err != nil {
		if mc.deregister(id) {
			slotPool.Put(slot) // never delivered to, never will be
		}
		if errors.Is(err, errFrameSize) {
			return nil, err
		}
		mc.fail(err) // a no-op unless this sender heard of the failure first
		return nil, mc.failure()
	}
	timer := acquireTimer(p.t.opts.IOTimeout)
	var resp *Message
	select {
	case resp = <-slot:
	case <-timer.C:
		// No reply within the exchange budget: the connection is not
		// making progress, so kill it — every other waiter fails fast
		// and the next Send redials. The sweep (or a reply that beat
		// it) then settles this slot like any other.
		mc.fail(fmt.Errorf("transport: request to %s timed out after %v", p.addr, p.t.opts.IOTimeout))
		resp = <-slot
	}
	releaseTimer(timer)
	slotPool.Put(slot)
	if resp == nil {
		return nil, mc.failure()
	}
	return resp, nil
}

// register files a waiting exchange under the next correlation ID.
func (mc *muxConn) register(slot chan *Message) (uint64, error) {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	if mc.err != nil {
		return 0, mc.err
	}
	mc.nextID++
	mc.pending[mc.nextID] = slot
	return mc.nextID, nil
}

// deregister withdraws an exchange whose frame was never queued. It
// reports whether the slot was still pending, i.e. nobody else holds it.
func (mc *muxConn) deregister(id uint64) bool {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	_, ok := mc.pending[id]
	delete(mc.pending, id)
	return ok
}

// failure returns the error the connection broke with.
func (mc *muxConn) failure() error {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	return mc.err
}

// fail marks the connection broken exactly once: every pending
// exchange is handed a nil outcome, the reader and any blocked writer
// unblock via conn.Close, and the peer slot clears so the next Send
// redials.
func (mc *muxConn) fail(err error) {
	mc.mu.Lock()
	if mc.err != nil {
		mc.mu.Unlock()
		return
	}
	mc.err = err
	orphans := mc.pending
	mc.pending = nil // register refuses from here on; deliver finds nothing
	mc.mu.Unlock()
	mc.conn.Close()
	mc.wr.stop(err)
	mc.peer.clear(mc)
	//lint:ignore rfhlint/detrange waking every waiter of a dead connection; order does not affect any state
	for _, slot := range orphans {
		slot <- nil // buffered, and this is the slot's only send
	}
}

// readLoop matches response frames to pending exchanges until the
// connection breaks. Response bodies are freshly allocated, never
// pooled: the Send caller owns the returned message indefinitely.
func (mc *muxConn) readLoop() {
	defer mc.peer.t.wg.Done()
	br := bufio.NewReaderSize(mc.conn, readBufSize)
	var hdr [frameHeaderLen]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			mc.fail(fmt.Errorf("transport: read %s: %w", mc.peer.addr, err))
			return
		}
		ftype, id, n, err := parseFrameHeader(hdr[:])
		if err != nil {
			mc.fail(err)
			return
		}
		if ftype != FrameResponse {
			mc.fail(fmt.Errorf("transport: peer %s sent frame type %d on a client connection", mc.peer.addr, ftype))
			return
		}
		body := make([]byte, n)
		if _, err := io.ReadFull(br, body); err != nil {
			mc.fail(fmt.Errorf("transport: short frame from %s: %w", mc.peer.addr, err))
			return
		}
		resp, err := DecodeMessage(body)
		if err != nil {
			mc.fail(err)
			return
		}
		mc.deliver(id, resp)
	}
}

// deliver hands a response to the exchange that registered id. An
// unknown id (a duplicate, or an exchange withdrawn before its frame
// was queued) is dropped.
func (mc *muxConn) deliver(id uint64, resp *Message) {
	mc.mu.Lock()
	slot, ok := mc.pending[id]
	delete(mc.pending, id)
	mc.mu.Unlock()
	if ok {
		slot <- resp // buffered, and this is the slot's only send
	}
}

var errWriterStopped = errors.New("transport: connection writer stopped")

// connWriter puts frames on one connection without a goroutine of its
// own. A sender encodes its frame straight into buf under mu; if no
// write is in progress it becomes the flusher and writes buf itself,
// otherwise its frame rides the flusher's next conn.Write — one
// syscall amortised over a burst (flat combining). buf and spare
// alternate so frames can be appended while the other half is on the
// wire. The flusher yields the processor once before a write only when
// busy shows company on this connection: then senders already runnable
// append first and the burst costs one write, while a lone request
// pays no hand-off at all.
type connWriter struct {
	conn    net.Conn
	timeout time.Duration // IOTimeout: the deadline of every write
	onErr   func(error)   // invoked (without mu) by the flusher whose write failed

	// busy counts the exchanges pending on an outbound connection, or
	// the requests dispatched and not yet answered on an inbound one —
	// the caller of send included.
	busy atomic.Int32

	mu       sync.Mutex
	room     sync.Cond // broadcast when a full queue is taken for writing, and on failure
	buf      []byte    // encoded frames awaiting the next write
	spare    []byte    // the idle half; nil while a write is in progress
	flushing bool      // a sender is in flush; buf is non-empty only then
	err      error     // sticky: why the writer stopped
}

func newConnWriter(conn net.Conn, timeout time.Duration, onErr func(error)) *connWriter {
	w := &connWriter{conn: conn, timeout: timeout, onErr: onErr}
	w.room.L = &w.mu
	return w
}

// send encodes one frame and returns once it is written or riding a
// write in progress. It blocks while writeQueueBytes are already
// queued, and fails when the writer has stopped or the message cannot
// be framed.
func (w *connWriter) send(ftype uint8, id uint64, m *Message) error {
	w.mu.Lock()
	for len(w.buf) >= writeQueueBytes && w.err == nil {
		w.room.Wait()
	}
	err := w.err
	if err == nil {
		w.buf, err = AppendFrame(w.buf, ftype, id, m)
	}
	if err != nil {
		if !w.flushing {
			w.buf = trimBuf(w.buf) // an unframeable message may have grown it
		}
		w.mu.Unlock()
		return err
	}
	if w.flushing {
		w.mu.Unlock()
		return nil
	}
	w.flushing = true
	w.mu.Unlock()
	return w.flush()
}

// flush writes buf until it stays empty. Only the sender that set
// flushing calls it.
func (w *connWriter) flush() error {
	for {
		if w.busy.Load() > 1 {
			runtime.Gosched()
		}
		w.mu.Lock()
		out := w.buf
		w.buf, w.spare = w.spare, nil
		w.mu.Unlock()
		if len(out) >= writeQueueBytes {
			w.room.Broadcast() // the queue just emptied: blocked senders fill it behind this write
		}
		//lint:ignore rfhlint/nowallclock real-socket write deadline; not simulation state
		w.conn.SetWriteDeadline(time.Now().Add(w.timeout))
		_, err := w.conn.Write(out)
		w.mu.Lock()
		w.spare = trimBuf(out)
		if w.err == nil {
			w.err = err
		}
		done := w.err != nil || len(w.buf) == 0
		if done {
			w.flushing = false
		}
		w.mu.Unlock()
		if err != nil {
			w.room.Broadcast()
			w.onErr(err)
		}
		if done {
			return err
		}
	}
}

// stop fails every blocked and future send. Safe to call repeatedly
// and concurrently with send; a write in progress ends when its
// connection closes.
func (w *connWriter) stop(err error) {
	w.mu.Lock()
	if w.err == nil {
		w.err = err
	}
	w.mu.Unlock()
	w.room.Broadcast()
}

// trimBuf empties b for reuse, dropping a capacity above maxIdleBuf.
func trimBuf(b []byte) []byte {
	if cap(b) > maxIdleBuf {
		return nil
	}
	return b[:0]
}

// idleWorkers caps how many finished request workers stay parked for
// reuse; workers beyond that exit after their task.
const idleWorkers = 64

// taskPool runs inbound request handlers on reusable goroutines. It
// grows without bound under load — a bounded pool could deadlock when
// handlers issue Sends whose replies depend on other inbound requests
// completing (cyclic waits across nodes) — but parks finished workers
// for reuse so the steady state spawns nothing.
type taskPool struct {
	t    *TCP
	idle chan chan task
}

// run serves k on a parked worker, or a fresh goroutine when none is
// available.
func (tp *taskPool) run(k task) {
	select {
	case w := <-tp.idle:
		select {
		case w <- k:
		case <-tp.t.closeCh:
			// The worker exited on close before receiving; k came from
			// a connection that is going down anyway.
		}
	default:
		tp.t.mu.Lock()
		if tp.t.closed {
			tp.t.mu.Unlock()
			return
		}
		tp.t.wg.Add(1)
		tp.t.mu.Unlock()
		go tp.worker(k)
	}
}

// worker serves its first task, then parks for reuse until the idle
// bench is full or the transport closes.
func (tp *taskPool) worker(k task) {
	defer tp.t.wg.Done()
	self := make(chan task)
	for {
		tp.t.serveRequest(k)
		select {
		case tp.idle <- self:
		default:
			return
		}
		select {
		case k = <-self:
		case <-tp.t.closeCh:
			return
		}
	}
}

// timerPool recycles exchange timers: a Send on the happy path stops
// its timer long before it fires, so the runtime timer is reusable.
var timerPool sync.Pool

func acquireTimer(d time.Duration) *time.Timer {
	if t, ok := timerPool.Get().(*time.Timer); ok {
		t.Reset(d)
		return t
	}
	//lint:ignore rfhlint/nowallclock real-socket exchange timeout; not simulation state
	return time.NewTimer(d)
}

// releaseTimer stops and drains a timer so its next Reset is safe.
func releaseTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	timerPool.Put(t)
}
