package node

import (
	"bytes"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// goid names the calling goroutine ("goroutine 17").
func goid() string {
	var buf [64]byte
	s := buf[:runtime.Stack(buf[:], false)]
	return string(s[:bytes.IndexByte(s, '[')])
}

// TestFanOut pins the three promises of the multi-peer send loop: with
// Fanout <= 1 the calls run one after another in index order on the
// caller (the chaos trajectories depend on it); otherwise every index
// runs exactly once with at most Fanout calls at a time; and the
// caller makes the last call itself, so N targets cost N-1 goroutines
// and one target costs none.
func TestFanOut(t *testing.T) {
	for _, fanout := range []int{0, 1} {
		fanOut := (&Node{cfg: Config{Fanout: fanout}}).fanOut // reads nothing but cfg
		self := goid()
		var order []int
		fanOut(6, func(i int) {
			if goid() != self {
				t.Errorf("Fanout %d: call %d left the caller's goroutine", fanout, i)
			}
			order = append(order, i)
		})
		for i, got := range order {
			if got != i {
				t.Fatalf("Fanout %d: calls ran in order %v", fanout, order)
			}
		}
		if len(order) != 6 {
			t.Fatalf("Fanout %d: %d of 6 calls ran", fanout, len(order))
		}
	}

	fanOut := (&Node{cfg: Config{Fanout: 4}}).fanOut
	self := goid()
	for _, count := range []int{0, 1, 2, 4, 11} {
		var mu sync.Mutex
		ran := make([]int, count)
		onCaller := map[int]bool{}
		var now, peak atomic.Int32
		// The first calls wait for each other, so the test sees them run
		// at once, not merely be allowed to: Fanout-1 of them, because
		// the caller joins in only for the last call.
		var together sync.WaitGroup
		together.Add(min(count, 3))
		var arrived atomic.Int32
		fanOut(count, func(i int) {
			if c := now.Add(1); c > peak.Load() {
				peak.Store(c) // racy max is fine: it only ever under-reports
			}
			if arrived.Add(1) <= 3 {
				together.Done()
				together.Wait()
			}
			mu.Lock()
			ran[i]++
			onCaller[i] = goid() == self
			mu.Unlock()
			now.Add(-1)
		})
		for i, c := range ran {
			if c != 1 {
				t.Fatalf("count %d: call %d ran %d times", count, i, c)
			}
			if onCaller[i] != (i == count-1) {
				t.Errorf("count %d: call %d on the caller's goroutine: %v", count, i, onCaller[i])
			}
		}
		if p := int(peak.Load()); p > 4 {
			t.Errorf("count %d: %d calls at once, Fanout is 4", count, p)
		}
	}
}
