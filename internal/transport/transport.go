// Package transport is the message plane of the live cluster runtime:
// a pluggable request/response transport carrying the node protocol's
// binary messages between peers.
//
// Two implementations are provided. Loopback wires endpoints together
// in-process with synchronous delivery — every Send round-trips
// through the binary codec but never leaves the process, so seeded
// multi-node tests are deterministic and race-clean. TCP speaks the
// same length-prefixed frames over real sockets with per-peer
// connection reuse, dial/read timeouts, and bounded retry with
// backoff, and is what cmd/rfhnode serves.
//
// The transport is deliberately dumb: it moves one Message and returns
// one Message. Request routing, replica placement and membership are
// the node layer's business (internal/node); the simulation engine
// never touches this package.
package transport

import "errors"

// Errors shared by the implementations. Callers branch on these with
// errors.Is; anything else is an I/O failure from the underlying
// medium.
var (
	// ErrClosed reports an operation on a closed transport.
	ErrClosed = errors.New("transport: closed")
	// ErrUnreachable reports that the peer could not be contacted (it
	// is down, partitioned away, or was never registered).
	ErrUnreachable = errors.New("transport: peer unreachable")
)

// Handler serves one inbound request. It runs on the transport's
// receive path (the caller's goroutine for Loopback, a pool worker for
// TCP — never the connection's reader), so implementations must be
// safe for concurrent use and must not block indefinitely. A nil response with a nil error
// is answered as an empty OK message; a non-nil error is delivered to
// the sender as a StatusError reply carrying the error text.
type Handler func(from string, req *Message) (*Message, error)

// Transport is one endpoint of the message plane. Implementations are
// safe for concurrent Sends.
type Transport interface {
	// Addr returns the address peers use to reach this endpoint (a
	// registered name for Loopback, host:port for TCP).
	Addr() string
	// Send delivers req to the named peer and blocks for its reply.
	// Transport-level failures (unreachable, timeout after retries)
	// return an error; application-level failures come back as a
	// Message with a non-OK Status.
	Send(peer string, req *Message) (*Message, error)
	// SetHandler installs the inbound request handler. It must be
	// called before the first request arrives; endpoints answer
	// requests received with no handler installed as StatusError.
	SetHandler(h Handler)
	// Close releases the endpoint: the listener stops, pooled
	// connections drop, and further Sends fail with ErrClosed.
	Close() error
}
