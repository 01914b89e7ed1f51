// Package metrics computes and records the evaluation quantities of
// §III: replica utilization rate (eqs. 20–23), replication and
// migration cost (eq. 1), load imbalance (eqs. 24–26), lookup path
// length, and replica counts. A Recorder accumulates named per-epoch
// time series that the experiment harness turns into the paper's
// figures.
package metrics

import (
	"fmt"
	"sort"

	"repro/internal/stats"
)

// Standard series names recorded by the simulation engine. One series
// point is appended per epoch.
const (
	SeriesUtilization    = "utilization"      // Fig. 3: average replica utilization rate
	SeriesTotalReplicas  = "replicas_total"   // Fig. 4(a,c)
	SeriesAvgReplicas    = "replicas_avg"     // Fig. 4(b,d): per partition
	SeriesReplCost       = "repl_cost_total"  // Fig. 5(a,c): cumulative eq. (1) cost
	SeriesReplCostAvg    = "repl_cost_avg"    // Fig. 5(b,d): per replication event
	SeriesMigrTimes      = "migr_times_total" // Fig. 6(a,c): cumulative migrations
	SeriesMigrTimesAvg   = "migr_times_avg"   // Fig. 6(b,d): per replica
	SeriesMigrCost       = "migr_cost_total"  // Fig. 7(a,c): cumulative eq. (1) cost
	SeriesMigrCostAvg    = "migr_cost_avg"    // Fig. 7(b,d): per migration event
	SeriesLoadImbalance  = "load_imbalance"   // Fig. 8: eq. (25) L_b
	SeriesPathLength     = "path_length"      // Fig. 9: mean lookup hops
	SeriesUnservedFrac   = "unserved_frac"    // extra: overflow fraction
	SeriesAliveServers   = "alive_servers"    // Fig. 10 context
	SeriesLostPartitions = "lost_partitions"  // extra: durability check

	// Per-epoch decision activity (not cumulative): how many actions of
	// each kind the policy executed this epoch.
	SeriesReplActions    = "repl_actions"
	SeriesMigrActions    = "migr_actions"
	SeriesSuicideActions = "suicide_actions"

	// Latency/SLA series, after the paper's §I motivation ("a response
	// within 300ms for 99.9% of its requests").
	SeriesSLAFrac     = "sla_frac"        // fraction of queries within the SLA bound
	SeriesLatencyMean = "latency_mean_ms" // mean latency over served queries
	SeriesLatencyP999 = "latency_p999_ms" // 99.9th percentile latency (+Inf if unserved)
)

// ReplicaUtilization implements eqs. (20)–(21) under one copy per
// server: each replica's utilization is its served queries over its
// capacity, clamped to [0, 1], and the result is the average over all
// replicas. served and capacity must be parallel slices, one entry per
// replica; capacities must be positive.
func ReplicaUtilization(served, capacity []int) (float64, error) {
	if len(served) != len(capacity) {
		return 0, fmt.Errorf("metrics: %d served entries vs %d capacities", len(served), len(capacity))
	}
	if len(served) == 0 {
		return 0, nil
	}
	sum := 0.0
	for i := range served {
		if capacity[i] <= 0 {
			return 0, fmt.Errorf("metrics: replica %d has capacity %d", i, capacity[i])
		}
		u := float64(served[i]) / float64(capacity[i])
		if u < 0 {
			u = 0
		}
		if u > 1 {
			u = 1
		}
		sum += u
	}
	return sum / float64(len(served)), nil
}

// LoadImbalance implements eq. (25): the population standard deviation
// of per-node workloads.
func LoadImbalance(loads []float64) float64 {
	return stats.StdDev(loads)
}

// RelativeLoadImbalance is eq. (25) normalised by the mean workload
// (the coefficient of variation). Eq. (26) divides the deviations by
// the node count; dividing by the mean instead makes runs with
// different aggregate load comparable — a policy that serves twice the
// traffic should not look twice as imbalanced. Zero load is perfectly
// balanced.
func RelativeLoadImbalance(loads []float64) float64 {
	m := stats.Mean(loads)
	if m == 0 {
		return 0
	}
	return stats.StdDev(loads) / m
}

// ReplicationCost implements eq. (1): c = d·f·s / b, with distance d,
// failure rate f, partition size s (bytes) and bandwidth b
// (bytes/epoch). Size and bandwidth enter as a ratio, so any consistent
// unit works.
func ReplicationCost(distance, failureRate float64, size, bandwidth int64) (float64, error) {
	if bandwidth <= 0 {
		return 0, fmt.Errorf("metrics: bandwidth must be positive, got %d", bandwidth)
	}
	if size < 0 || distance < 0 || failureRate < 0 {
		return 0, fmt.Errorf("metrics: negative cost input (d=%g f=%g s=%d)", distance, failureRate, size)
	}
	return distance * failureRate * float64(size) / float64(bandwidth), nil
}

// Series is one named per-epoch time series.
type Series struct {
	Name   string
	Points []float64
}

// Last returns the most recent point, or 0 when empty.
func (s *Series) Last() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	return s.Points[len(s.Points)-1]
}

// Mean returns the mean over all points.
func (s *Series) Mean() float64 { return stats.Mean(s.Points) }

// Window returns the sub-series [from, to) clipped to valid bounds.
func (s *Series) Window(from, to int) []float64 {
	if from < 0 {
		from = 0
	}
	if to > len(s.Points) {
		to = len(s.Points)
	}
	if from >= to {
		return nil
	}
	return s.Points[from:to]
}

// Recorder accumulates named series. The zero value is not usable;
// construct with NewRecorder. Recorder is not safe for concurrent use.
type Recorder struct {
	series map[string]*Series
	order  []string
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{series: make(map[string]*Series)}
}

// Append adds one point to the named series, creating it on first use.
func (r *Recorder) Append(name string, v float64) {
	s, ok := r.series[name]
	if !ok {
		s = &Series{Name: name}
		r.series[name] = s
		r.order = append(r.order, name)
	}
	s.Points = append(s.Points, v)
}

// Series returns the named series, or nil if never appended to.
func (r *Recorder) Series(name string) *Series { return r.series[name] }

// Names returns all series names in first-appended order.
func (r *Recorder) Names() []string {
	out := make([]string, len(r.order))
	copy(out, r.order)
	return out
}

// Epochs returns the length of the longest series.
func (r *Recorder) Epochs() int {
	max := 0
	for _, s := range r.series {
		if len(s.Points) > max {
			max = len(s.Points)
		}
	}
	return max
}

// Validate checks that all series have equal length — each epoch must
// append to every series exactly once.
func (r *Recorder) Validate() error {
	want := -1
	names := make([]string, 0, len(r.series))
	for n := range r.series {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		got := len(r.series[n].Points)
		if want == -1 {
			want = got
			continue
		}
		if got != want {
			return fmt.Errorf("metrics: series %q has %d points, others have %d", n, got, want)
		}
	}
	return nil
}
