package main

import (
	"math/bits"
	"time"
)

// hist is a fixed log-linear latency histogram over nanoseconds: every
// power of two is cut into histSub equal buckets, so a bucket is at
// most 1/histSub (0.78 %) wide relative to its lower edge. It is
// preallocated and record is branch-light, so it can sit inside a
// measured loop.
type hist struct {
	counts [histBuckets]uint32
	n      uint64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	// Values up to 2^41 ns (about 37 minutes) fit; larger ones clamp
	// into the last bucket.
	histMaxExp  = 41 - histSubBits
	histBuckets = (histMaxExp + 1) * histSub
)

func histIndex(ns uint64) int {
	if ns < histSub {
		return int(ns)
	}
	exp := bits.Len64(ns) - histSubBits - 1 // ns>>exp lies in [histSub, 2*histSub)
	if exp >= histMaxExp {
		return histBuckets - 1
	}
	return (exp+1)*histSub + int(ns>>uint(exp)) - histSub
}

// histBounds returns the lower edge and the width of bucket i in
// nanoseconds.
func histBounds(i int) (lo, width float64) {
	if i < histSub {
		return float64(i), 1
	}
	exp := uint(i/histSub - 1)
	return float64(uint64(histSub+i%histSub) << exp), float64(uint64(1) << exp)
}

func (h *hist) record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[histIndex(uint64(d))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile (0 < q <= 1) in nanoseconds, 0 for
// an empty histogram: the value at rank q*n, placed inside its bucket
// by linear interpolation, so a quantile moves continuously with the
// samples instead of jumping from bucket edge to bucket edge.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var seen float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, width := histBounds(i)
			return lo + width*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	lo, width := histBounds(histBuckets - 1)
	return lo + width
}
