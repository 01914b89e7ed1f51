package main

import (
	"sort"
	"time"
)

// sliceSet cuts one measured phase into equal wall-clock slices and
// keeps, per slice, a get and a put latency histogram and an op count.
// The host this runs on swings between fast and slow modes that last
// seconds, so a timing metric is read from the quietest slice (lowest
// p50, highest ops/s), with the median slice and the spread printed
// beside it. One sliceSet belongs to one goroutine; merge combines
// them after the phase.
type sliceSet struct {
	length time.Duration
	get    []hist
	put    []hist
}

func newSliceSet(n int, length time.Duration) *sliceSet {
	return &sliceSet{length: length, get: make([]hist, n), put: make([]hist, n)}
}

// record files one completed op under the slice its completion time
// falls in; completions after the last slice are not timed.
func (s *sliceSet) record(sinceStart, latency time.Duration, put bool) {
	i := int(sinceStart / s.length)
	if i >= len(s.get) {
		return
	}
	if put {
		s.put[i].record(latency)
	} else {
		s.get[i].record(latency)
	}
}

func (s *sliceSet) merge(o *sliceSet) {
	for i := range s.get {
		s.get[i].merge(&o.get[i])
		s.put[i].merge(&o.put[i])
	}
}

// total merges every slice into one histogram per op type.
func (s *sliceSet) total() (get, put *hist) {
	get, put = new(hist), new(hist)
	for i := range s.get {
		get.merge(&s.get[i])
		put.merge(&s.put[i])
	}
	return get, put
}

// minSliceSamples is the fewest samples a slice needs before its
// quantile is allowed to be the best one: a slice a tick swallowed
// must not win on three lucky ops.
const minSliceSamples = 30

// sliceStat summarises one per-slice series.
type sliceStat struct {
	best, median, spreadPct float64
	slices                  int
}

// summarise picks the best value of a per-slice series (the lowest when
// lowerIsBetter) and reports the median and (max-min)/median in
// percent. Zero values mark slices without enough samples and are
// skipped.
func summarise(vals []float64, lowerIsBetter bool) sliceStat {
	var v []float64
	for _, x := range vals {
		if x > 0 {
			v = append(v, x)
		}
	}
	if len(v) == 0 {
		return sliceStat{}
	}
	sort.Float64s(v)
	st := sliceStat{slices: len(v), median: v[len(v)/2]}
	if len(v)%2 == 0 {
		st.median = (v[len(v)/2-1] + v[len(v)/2]) / 2
	}
	st.best = v[len(v)-1]
	if lowerIsBetter {
		st.best = v[0]
	}
	st.spreadPct = 100 * (v[len(v)-1] - v[0]) / st.median
	return st
}

// quantileBySlice returns the q-quantile of every slice in
// nanoseconds, 0 where a slice has too few samples.
func quantileBySlice(hs []hist, q float64) []float64 {
	out := make([]float64, len(hs))
	for i := range hs {
		if hs[i].n >= minSliceSamples {
			out[i] = hs[i].quantile(q)
		}
	}
	return out
}

// opsPerSecBySlice returns each slice's completed ops per second.
func (s *sliceSet) opsPerSecBySlice() []float64 {
	out := make([]float64, len(s.get))
	for i := range out {
		out[i] = float64(s.get[i].n+s.put[i].n) / s.length.Seconds()
	}
	return out
}
