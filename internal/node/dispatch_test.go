package node

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/durable"
	"repro/internal/transport"
)

// TestDispatchCoversWireKinds is the runtime half of the kindswitch
// contract: the lint proves the Handle switch and the KindNames
// registry stay in lockstep with the Kind* constants; this test proves
// the handlers behind the switch actually serve. Every node-to-node
// kind in KindNames (< 64 — control RPCs are covered by the fleet
// tests) is sent as one representative, well-formed message to a node
// holding the target partition, and must come back with a reply whose
// status is not StatusError. Adding a kind to the registry without
// extending this test's message builder fails loudly below.
func TestDispatchCoversWireKinds(t *testing.T) {
	h := newHarness(t, "loopback", 3, testConfig())
	h.tick()
	h.tick()

	const key = "dispatch-key"
	const dispatchSession = uint64(0xD15)
	xferChunk := []durable.Entry{{Key: "xfer-key", Val: []byte("xv"), Ver: 1}}
	p := h.nodes[0].PartitionOf(key)

	// Address the partition's primary: the one node guaranteed both
	// resident and authoritative for every kind.
	h.nodes[0].mu.RLock()
	prim := h.nodes[0].view.primary(p)
	h.nodes[0].mu.RUnlock()
	nd := h.nodes[prim]
	from := fmt.Sprintf("node%d", (prim+1)%len(h.nodes))

	// Seed the key so reads and version probes find a value.
	if resp, err := nd.Handle(from, &transport.Message{Kind: KindPut, Key: []byte(key), Value: []byte("v1")}); err != nil {
		t.Fatalf("seed put: %v", err)
	} else if resp.Status != transport.StatusOK {
		t.Fatalf("seed put: status %d", resp.Status)
	}

	var kinds []int
	for k := range KindNames {
		if k < 64 {
			kinds = append(kinds, int(k))
		}
	}
	sort.Ints(kinds)

	for _, ki := range kinds {
		kind := uint8(ki)
		var msg *transport.Message
		switch kind {
		case KindGet:
			msg = &transport.Message{Kind: kind, Key: []byte(key)}
		case KindPut:
			msg = &transport.Message{Kind: kind, Key: []byte(key), Value: []byte("v2")}
		case KindSync:
			msg = &transport.Message{Kind: kind, Partition: uint32(p), Key: []byte(key), Value: []byte("v3"), Version: 1 << 40}
		case KindDrop:
			// The primary refuses the drop (StatusRetry) rather than
			// destroying its authoritative copy; either way the kind is
			// served, which is what this test pins.
			msg = &transport.Message{Kind: kind, Partition: uint32(p)}
		case KindStats:
			blob := appendStats(nil, &statsBlob{})
			msg = &transport.Message{Kind: kind, Origin: uint32((prim + 1) % len(h.nodes)), Epoch: nd.Epoch(), Value: blob}
		case KindPing:
			msg = &transport.Message{Kind: kind}
		case KindVer:
			msg = &transport.Message{Kind: kind, Partition: uint32(p), Key: []byte(key)}
		// The four transfer kinds arrive in protocol order (the kinds
		// iterate sorted: begin 9, chunk 10, cursor 11, done 12) on one
		// shared scripted session. Its begin carries its only chunk and
		// completes it, so the chunk, cursor and done that follow are
		// answered as replays of a finished session.
		case KindXferBegin:
			msg = &transport.Message{Kind: kind, Partition: uint32(p), Session: dispatchSession,
				Value: appendXferBegin(nil, 1, false, false, xferChunk)}
		case KindXferChunk:
			msg = &transport.Message{Kind: kind, Partition: uint32(p), Session: dispatchSession,
				Cursor: 0, Value: appendEntries(nil, xferChunk)}
		case KindXferCursor:
			msg = &transport.Message{Kind: kind, Partition: uint32(p), Session: dispatchSession}
		case KindXferDone:
			msg = &transport.Message{Kind: kind, Partition: uint32(p), Session: dispatchSession}
		case KindXferOffer:
			// An offer of the seeded key at a version above the primary's:
			// the target wants it.
			offer := appendEntries(nil, []durable.Entry{{Key: key, Ver: 1 << 50}})
			msg = &transport.Message{Kind: kind, Partition: uint32(p), Session: dispatchSession, Value: offer}
		default:
			t.Fatalf("KindNames declares node-to-node kind %d (%s) but this test has no representative message for it; extend the switch above", kind, KindNames[kind])
		}
		resp, err := nd.Handle(from, msg)
		if err != nil {
			t.Errorf("kind %d (%s): Handle error: %v", kind, KindNames[kind], err)
			continue
		}
		if resp == nil {
			t.Errorf("kind %d (%s): nil reply", kind, KindNames[kind])
			continue
		}
		if resp.Status == transport.StatusError {
			t.Errorf("kind %d (%s): reply status StatusError", kind, KindNames[kind])
		}
	}
}
