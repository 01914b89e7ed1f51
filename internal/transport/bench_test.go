package transport

import (
	"sync"
	"testing"
)

// tcpEchoPair is a client and an echo server joined over 127.0.0.1,
// plus the 64-byte put-shaped request the round-trip rows send.
func tcpEchoPair(tb testing.TB) (client *TCP, addr string, req *Message) {
	tb.Helper()
	server, err := ListenTCP("127.0.0.1:0", func(from string, req *Message) (*Message, error) {
		return &Message{Kind: req.Kind, Value: req.Value}, nil
	}, TCPOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	client = NewTCPClient(TCPOptions{})
	tb.Cleanup(func() { client.Close(); server.Close() })
	req = &Message{Kind: 2, Partition: 17, Hops: 1, Version: 5<<20 | 9, Key: []byte("k00001234"), Value: make([]byte, 64)}
	if _, err := client.Send(server.Addr(), req); err != nil { // dial, park a worker
		tb.Fatal(err)
	}
	return client, server.Addr(), req
}

// BenchmarkTCPRoundTrip prices one hop: serial is a lone request (no
// hand-off to a writer, no yield), inflight8 is eight senders sharing
// the connection (their frames coalesce into shared writes).
func BenchmarkTCPRoundTrip(b *testing.B) {
	for _, senders := range []struct {
		name string
		n    int
	}{{"serial", 1}, {"inflight8", 8}} {
		b.Run(senders.name, func(b *testing.B) {
			client, addr, req := tcpEchoPair(b)
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for g := 0; g < senders.n; g++ {
				n := b.N / senders.n
				if g == 0 {
					n += b.N % senders.n
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < n; i++ {
						if _, err := client.Send(addr, req); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}
