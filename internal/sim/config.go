// Package sim is the epoch-driven simulation engine that binds the
// substrates together and reproduces the paper's §III experiments. One
// epoch is: inject scheduled failures → generate demand → propagate
// queries along routed paths with replica absorption (per partition, in
// parallel) → fold traffic statistics → ask the policy for a decision →
// apply it under bandwidth/storage constraints, charging eq. (1) costs →
// record the metric series behind Figs. 3–10.
package sim

import (
	"fmt"
	"runtime"

	"repro/internal/metrics"
	"repro/internal/traffic"
)

// Config controls one simulation run. Zero values are invalid; start
// from DefaultConfig.
type Config struct {
	// Epochs is the number of simulated epochs.
	Epochs int
	// Thresholds are the α/β/γ/δ/μ decision constants (Table I).
	Thresholds traffic.Thresholds
	// FailureRate is the per-replica failure probability f of eq. (14)
	// (Table I: 0.1). It parameterises the availability bound and the
	// eq. (1) cost; it does not itself kill servers (use failure events).
	FailureRate float64
	// MinAvailability is A_expect of eq. (14) (Table I: 0.8).
	MinAvailability float64
	// HubCandidates is the size of the traffic-hub candidate set
	// (paper: 3).
	HubCandidates int
	// TokensPerServer is the number of virtual nodes each physical
	// server projects onto the consistent-hashing ring.
	TokensPerServer int
	// Workers bounds the per-partition propagation fan-out. Zero means
	// GOMAXPROCS.
	Workers int
	// Seed drives every stochastic choice of the engine and policies.
	Seed uint64
	// Latency maps lookup hops to response time for the SLA series
	// (zero value selects metrics.DefaultLatencyModel).
	Latency metrics.LatencyModel
	// ChurnFailProb, when positive, makes every alive server fail
	// independently with this probability at each epoch (§III-G: "Node
	// failure is very common in Cloud storage system"). Failed servers
	// recover after ChurnMTTR epochs.
	ChurnFailProb float64
	// ChurnMTTR is the epochs a churn-failed server stays down
	// (default 20 when churn is enabled).
	ChurnMTTR int
	// Serving selects how queries find replicas: ServePath (default)
	// is the literal eq. (2)–(6) overflow chain toward the holder —
	// replicas serve only lookups whose routed path encounters them,
	// which is what makes placement quality matter. ServeNearest
	// models an idealised direct lookup to the closest replica with
	// spare capacity and is kept for the serving-model ablation.
	Serving ServingModel
}

// ServingModel selects the query-serving semantics.
type ServingModel int

// Serving models.
const (
	// ServePath absorbs queries only at replicas on the routed path
	// toward the holder, the literal reading of eqs. (2)–(6).
	ServePath ServingModel = iota
	// ServeNearest routes each query to the nearest datacenter with
	// spare replica capacity (an idealised direct lookup; ablation).
	ServeNearest
)

// String implements fmt.Stringer.
func (m ServingModel) String() string {
	switch m {
	case ServeNearest:
		return "nearest"
	case ServePath:
		return "path"
	default:
		return fmt.Sprintf("ServingModel(%d)", int(m))
	}
}

// DefaultConfig returns the Table I experiment configuration.
func DefaultConfig() Config {
	return Config{
		Epochs:          250,
		Thresholds:      traffic.DefaultThresholds(),
		FailureRate:     0.1,
		MinAvailability: 0.8,
		HubCandidates:   3,
		TokensPerServer: 8,
		Workers:         0,
		Seed:            1,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Epochs <= 0:
		return fmt.Errorf("sim: epochs must be positive")
	case c.FailureRate < 0 || c.FailureRate >= 1:
		return fmt.Errorf("sim: failure rate %g outside [0,1)", c.FailureRate)
	case c.MinAvailability < 0 || c.MinAvailability >= 1:
		return fmt.Errorf("sim: min availability %g outside [0,1)", c.MinAvailability)
	case c.HubCandidates <= 0:
		return fmt.Errorf("sim: hub candidates must be positive")
	case c.TokensPerServer <= 0:
		return fmt.Errorf("sim: tokens per server must be positive")
	case c.Workers < 0:
		return fmt.Errorf("sim: workers must be non-negative")
	case c.Serving != ServeNearest && c.Serving != ServePath:
		return fmt.Errorf("sim: unknown serving model %d", c.Serving)
	case c.ChurnFailProb < 0 || c.ChurnFailProb >= 1:
		return fmt.Errorf("sim: churn probability %g outside [0,1)", c.ChurnFailProb)
	case c.ChurnMTTR < 0:
		return fmt.Errorf("sim: churn MTTR must be non-negative")
	}
	if c.Latency != (metrics.LatencyModel{}) {
		if err := c.Latency.Validate(); err != nil {
			return err
		}
	}
	return c.Thresholds.Validate()
}

// workers resolves the effective worker count.
func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}
