// Package experiments reproduces the paper's evaluation (§III): every
// figure from Fig. 3 through Fig. 10 plus the Table I configuration
// echo. A Suite lazily runs the three underlying simulations — the
// random-query setting, the four-stage flash-crowd setting (both with
// all four policies), and the Fig. 10 failure/recovery run (RFH only) —
// and extracts per-figure series from the recorded metrics. Results are
// cached, so requesting all figures costs three simulation campaigns.
package experiments

import (
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Options configures a reproduction campaign. Defaults mirror §III-A.
type Options struct {
	Seed          uint64
	EpochsRandom  int     // random-query run length (paper plots ~250)
	EpochsFlash   int     // flash-crowd run length (paper plots ~400)
	EpochsFailure int     // Fig. 10 run length (paper plots ~500)
	FailEpoch     int     // Fig. 10 mass-failure epoch (paper: 290)
	FailServers   int     // Fig. 10 servers removed (paper: 30)
	Lambda        float64 // queries per partition per epoch (Table I: 300)
	Workers       int     // simulation worker bound; 0 = GOMAXPROCS
	Serving       sim.ServingModel
}

// DefaultOptions returns the paper's experiment dimensions.
func DefaultOptions() Options {
	return Options{
		Seed:          1,
		EpochsRandom:  250,
		EpochsFlash:   400,
		EpochsFailure: 500,
		FailEpoch:     290,
		FailServers:   30,
		Lambda:        300,
		Serving:       sim.ServePath,
	}
}

// Validate checks the options.
func (o Options) Validate() error {
	switch {
	case o.EpochsRandom < 10 || o.EpochsFlash < 10 || o.EpochsFailure < 10:
		return fmt.Errorf("experiments: runs need at least 10 epochs")
	case o.FailEpoch <= 0 || o.FailEpoch >= o.EpochsFailure:
		return fmt.Errorf("experiments: fail epoch %d outside run (0, %d)", o.FailEpoch, o.EpochsFailure)
	case o.FailServers <= 0:
		return fmt.Errorf("experiments: must fail at least one server")
	case o.Lambda <= 0:
		return fmt.Errorf("experiments: lambda must be positive")
	}
	return nil
}

// PolicyRun pairs a policy name with the metric series its simulation
// produced.
type PolicyRun struct {
	Policy   string
	Recorder *metrics.Recorder
}

// PolicyNames lists the four §III algorithms in the paper's legend
// order.
var PolicyNames = []string{"request", "owner", "random", "rfh"}

// Suite runs and caches the simulation campaigns behind the figures.
// It is not safe for concurrent use.
type Suite struct {
	opts Options

	randomRuns  []PolicyRun
	flashRuns   []PolicyRun
	churnRuns   []PolicyRun
	failureRun  *PolicyRun
	failureMeta failureMeta
}

type failureMeta struct {
	failEpoch int
	failed    int
}

// NewSuite creates a suite; it runs nothing until a figure is
// requested.
func NewSuite(opts Options) (*Suite, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	return &Suite{opts: opts}, nil
}

// Options returns the suite's configuration.
func (s *Suite) Options() Options { return s.opts }

// simConfig is the engine configuration every suite run starts from.
func (s *Suite) simConfig(epochs int) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Epochs = epochs
	cfg.Seed = s.opts.Seed
	cfg.Workers = s.opts.Workers
	cfg.Serving = s.opts.Serving
	return cfg
}

// spec names one suite simulation on the paper world.
func (s *Suite) spec(polName, workloadName string) Spec {
	return Spec{Workload: workloadName, Lambda: s.opts.Lambda, Policy: polName}
}

// runCampaign simulates every policy over one workload setting.
func (s *Suite) runCampaign(workloadName string, cfg sim.Config) ([]PolicyRun, error) {
	runs := make([]PolicyRun, 0, len(PolicyNames))
	for _, name := range PolicyNames {
		eng, err := NewEngine(s.spec(name, workloadName), cfg)
		if err != nil {
			return nil, err
		}
		rec, err := eng.Run()
		eng.Close()
		if err != nil {
			return nil, fmt.Errorf("experiments: %s/%s: %w", name, workloadName, err)
		}
		runs = append(runs, PolicyRun{Policy: name, Recorder: rec})
	}
	return runs, nil
}

// RandomRuns returns (running on first use) the §III random-query
// campaign for all four policies.
func (s *Suite) RandomRuns() ([]PolicyRun, error) {
	if s.randomRuns == nil {
		runs, err := s.runCampaign("uniform", s.simConfig(s.opts.EpochsRandom))
		if err != nil {
			return nil, err
		}
		s.randomRuns = runs
	}
	return s.randomRuns, nil
}

// FlashRuns returns (running on first use) the flash-crowd campaign.
func (s *Suite) FlashRuns() ([]PolicyRun, error) {
	if s.flashRuns == nil {
		runs, err := s.runCampaign("flash", s.simConfig(s.opts.EpochsFlash))
		if err != nil {
			return nil, err
		}
		s.flashRuns = runs
	}
	return s.flashRuns, nil
}

// ChurnRuns returns (running on first use) the churn extension
// campaign: every policy under uniform load with each server failing
// independently per epoch (p = 0.01, MTTR 15) — the empirical
// availability experiment behind extension figure E2.
func (s *Suite) ChurnRuns() ([]PolicyRun, error) {
	if s.churnRuns == nil {
		cfg := s.simConfig(s.opts.EpochsRandom)
		cfg.ChurnFailProb = 0.01
		cfg.ChurnMTTR = 15
		runs, err := s.runCampaign("uniform", cfg)
		if err != nil {
			return nil, err
		}
		s.churnRuns = runs
	}
	return s.churnRuns, nil
}

// FailureRun returns (running on first use) the Fig. 10 experiment:
// RFH under random query with FailServers random servers removed at
// FailEpoch.
func (s *Suite) FailureRun() (*PolicyRun, error) {
	if s.failureRun == nil {
		eng, err := NewEngine(s.spec("rfh", "uniform"), s.simConfig(s.opts.EpochsFailure))
		if err != nil {
			return nil, err
		}
		rng := stats.NewRNG(s.opts.Seed ^ 0xFA11)
		perm := rng.Perm(eng.Cluster().NumServers())
		fail := make([]cluster.ServerID, 0, s.opts.FailServers)
		for _, idx := range perm[:s.opts.FailServers] {
			fail = append(fail, cluster.ServerID(idx))
		}
		sort.Slice(fail, func(i, j int) bool { return fail[i] < fail[j] })
		eng.ScheduleFailure(sim.FailureEvent{Epoch: s.opts.FailEpoch, Fail: fail})
		rec, err := eng.Run()
		eng.Close()
		if err != nil {
			return nil, err
		}
		s.failureRun = &PolicyRun{Policy: "rfh", Recorder: rec}
		s.failureMeta = failureMeta{failEpoch: s.opts.FailEpoch, failed: len(fail)}
	}
	return s.failureRun, nil
}
