// Package rfh is a from-scratch reproduction of "RFH: A Resilient,
// Fault-Tolerant and High-efficient Replication Algorithm for
// Distributed Cloud Storage" (Qu & Xiong, ICPP 2012).
//
// It bundles a deterministic epoch-driven simulator of a globally
// distributed cloud storage system — geographic topology, consistent-
// hashing ring, overlay routing, heterogeneous servers, Poisson and
// flash-crowd workloads — together with four replication policies: the
// paper's traffic-oriented RFH decision tree and the three baselines it
// is evaluated against (random/Dynamo-style, owner-oriented,
// request-oriented). The experiments subsystem regenerates every figure
// of the paper's evaluation and checks the paper's qualitative claims
// against the simulated data.
//
// Quick start:
//
//	cfg := rfh.DefaultConfig()
//	cfg.Policy = "rfh"
//	cfg.Epochs = 250
//	res, err := rfh.Run(cfg)
//	if err != nil { ... }
//	fmt.Println(res.Final(rfh.SeriesUtilization))
//
// For the paper's figures, see ReproduceFigure and CheckFigure, or run
// the rfhexp command.
package rfh

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
	"repro/internal/workload"
)

// Re-exported metric series names; every Result carries one point per
// epoch for each of these.
const (
	SeriesUtilization    = metrics.SeriesUtilization
	SeriesTotalReplicas  = metrics.SeriesTotalReplicas
	SeriesAvgReplicas    = metrics.SeriesAvgReplicas
	SeriesReplCost       = metrics.SeriesReplCost
	SeriesReplCostAvg    = metrics.SeriesReplCostAvg
	SeriesMigrTimes      = metrics.SeriesMigrTimes
	SeriesMigrTimesAvg   = metrics.SeriesMigrTimesAvg
	SeriesMigrCost       = metrics.SeriesMigrCost
	SeriesMigrCostAvg    = metrics.SeriesMigrCostAvg
	SeriesLoadImbalance  = metrics.SeriesLoadImbalance
	SeriesPathLength     = metrics.SeriesPathLength
	SeriesUnservedFrac   = metrics.SeriesUnservedFrac
	SeriesAliveServers   = metrics.SeriesAliveServers
	SeriesLostPartitions = metrics.SeriesLostPartitions

	// Per-epoch decision activity.
	SeriesReplActions    = metrics.SeriesReplActions
	SeriesMigrActions    = metrics.SeriesMigrActions
	SeriesSuicideActions = metrics.SeriesSuicideActions

	// Latency/SLA series (the paper's "300ms for 99.9% of requests").
	SeriesSLAFrac     = metrics.SeriesSLAFrac
	SeriesLatencyMean = metrics.SeriesLatencyMean
	SeriesLatencyP999 = metrics.SeriesLatencyP999
)

// Extension points for custom replication policies: implement Policy
// and set Config.CustomPolicy. The context exposes the cluster, the
// traffic tracker, the router and the hash ring of the running
// simulation.
type (
	// Policy is a replication algorithm driven once per epoch.
	Policy = policy.Policy
	// PolicyContext is the read-only world view a Policy decides from.
	PolicyContext = policy.Context
	// Decision lists the replications, migrations and suicides a policy
	// wants applied.
	Decision = policy.Decision
	// Replication copies a partition from Source onto Target.
	Replication = policy.Replication
	// Migration moves a partition copy between servers.
	Migration = policy.Migration
	// Suicide removes a partition copy.
	Suicide = policy.Suicide
	// WorkloadGenerator produces one demand matrix per epoch; set
	// Config.CustomWorkload to drive the simulation with your own
	// demand (e.g. a production trace via the workload trace parser).
	WorkloadGenerator = workload.Generator
	// DemandMatrix is one epoch of demand: Q[partition][datacenter].
	DemandMatrix = workload.Matrix
	// ServerID identifies a physical server (dense 0..NumServers-1).
	ServerID = cluster.ServerID
	// DCID identifies a datacenter (dense 0..9 in the paper world).
	DCID = topology.DCID
)

// Config describes one simulation run. Zero value is not valid; start
// from DefaultConfig.
type Config struct {
	// Policy selects the replication algorithm: "rfh", "random",
	// "owner", "request" or "ead" (the Shen [17] extension baseline),
	// each with its Table I parameters. Ignored when CustomPolicy is
	// set.
	Policy string
	// CustomPolicy, when non-nil, overrides Policy with a user-supplied
	// implementation.
	CustomPolicy Policy
	// CustomWorkload, when non-nil, overrides Workload with a
	// user-supplied demand generator. Its matrices must match the
	// partition and datacenter counts of the run.
	CustomWorkload WorkloadGenerator

	// Epochs is the simulated horizon (Table I epoch = 10 s).
	Epochs int
	// Workload selects the query setting: "uniform" (the paper's random
	// and even setting), "flash" (the four-stage flash crowd), "zipf"
	// (partition-skewed), "diurnal" (a day/night wave sweeping across
	// the planet) or "drift" (a hotspot advancing one datacenter at a
	// time).
	Workload string
	// Lambda is the Poisson mean of queries per partition per epoch.
	Lambda float64
	// ZipfExponent skews partition popularity when Workload is "zipf".
	ZipfExponent float64
	// DiurnalPeriod is the wave length in epochs for Workload "diurnal"
	// (0 = half the run).
	DiurnalPeriod int
	// DriftHold is how many epochs the hotspot stays on one datacenter
	// for Workload "drift" (0 = 20).
	DriftHold int

	// Partitions overrides the Table I partition count (64) when > 0.
	Partitions int
	// WorldDCs, when > 0, replaces the paper's 10-datacenter world with
	// a synthetic random-geometric world of that many datacenters (each
	// still 10 servers) — the scalability extension.
	WorldDCs int

	// Alpha, Beta, Gamma, Delta, Mu are the Table I decision constants.
	Alpha, Beta, Gamma, Delta, Mu float64
	// FailureRate and MinAvailability parameterise the eq. (14)
	// availability lower limit.
	FailureRate     float64
	MinAvailability float64
	// HubCandidates is the traffic-hub candidate set size (paper: 3).
	HubCandidates int

	// Serving selects the query-serving model: "path" (the paper's
	// eq. 2–6 overflow chain, default) or "nearest" (idealised direct
	// lookup).
	Serving string

	// ChurnFailProb, when positive, fails each alive server with this
	// probability every epoch; servers recover after ChurnMTTR epochs
	// (0 = 20).
	ChurnFailProb float64
	ChurnMTTR     int

	// HopLatencyMs, ServiceLatencyMs and SLAThresholdMs parameterise
	// the latency/SLA series; zeros select the defaults (50 ms per hop,
	// 10 ms service, 300 ms SLA — the paper's §I motivation).
	HopLatencyMs     float64
	ServiceLatencyMs float64
	SLAThresholdMs   float64

	// Workers bounds the per-epoch parallel fan-out; 0 = GOMAXPROCS.
	Workers int
	// Seed makes runs reproducible.
	Seed uint64
}

// DefaultConfig returns the Table I configuration with the RFH policy
// under the uniform workload.
func DefaultConfig() Config {
	th := traffic.DefaultThresholds()
	return Config{
		Policy:          "rfh",
		Epochs:          250,
		Workload:        "uniform",
		Lambda:          300,
		ZipfExponent:    1.0,
		Alpha:           th.Alpha,
		Beta:            th.Beta,
		Gamma:           th.Gamma,
		Delta:           th.Delta,
		Mu:              th.Mu,
		FailureRate:     0.1,
		MinAvailability: 0.8,
		HubCandidates:   3,
		Serving:         "path",
		Seed:            1,
	}
}

// FailureEvent kills, revives and/or joins servers at the start of an
// epoch. Server ids are dense indices (0..99 initially in the paper
// world; joined servers extend the range). JoinDCs adds one brand-new
// server per listed datacenter (0..9).
type FailureEvent struct {
	Epoch   int
	Fail    []int
	Recover []int
	JoinDCs []int
}

// Result carries the per-epoch metric series of one run plus the final
// placement snapshot.
type Result struct {
	Policy string
	Epochs int
	// Placement is the end-of-run replica distribution, one row per
	// datacenter (name, alive servers, hosted copies, primaries).
	Placement []PlacementDC
	// PartitionCopies is the end-of-run copy count per partition.
	PartitionCopies []int
	recorder        *metrics.Recorder
}

// PlacementDC is one datacenter's share of the final replica fleet.
type PlacementDC struct {
	DC           int
	Name         string
	AliveServers int
	Replicas     int
	Primaries    int
}

// Names returns all recorded series names.
func (r *Result) Names() []string { return r.recorder.Names() }

// Series returns the per-epoch points of a named series (nil when the
// name is unknown). The slice is a copy.
func (r *Result) Series(name string) []float64 {
	s := r.recorder.Series(name)
	if s == nil {
		return nil
	}
	out := make([]float64, len(s.Points))
	copy(out, s.Points)
	return out
}

// Final returns the last value of a named series (0 when unknown).
func (r *Result) Final(name string) float64 {
	s := r.recorder.Series(name)
	if s == nil {
		return 0
	}
	return s.Last()
}

// Mean returns the mean of a named series over all epochs.
func (r *Result) Mean(name string) float64 {
	s := r.recorder.Series(name)
	if s == nil {
		return 0
	}
	return s.Mean()
}

// Run simulates the configured system and returns its metric series.
func Run(cfg Config) (*Result, error) {
	return RunWithFailures(cfg, nil)
}

// RunWithFailures is Run plus scheduled server failure/recovery events
// (the Fig. 10 experiment shape).
func RunWithFailures(cfg Config, events []FailureEvent) (*Result, error) {
	eng, err := buildEngine(cfg)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	for _, ev := range events {
		fe := sim.FailureEvent{Epoch: ev.Epoch}
		for _, s := range ev.Fail {
			fe.Fail = append(fe.Fail, cluster.ServerID(s))
		}
		for _, s := range ev.Recover {
			fe.Recover = append(fe.Recover, cluster.ServerID(s))
		}
		for _, dc := range ev.JoinDCs {
			fe.Join = append(fe.Join, topology.DCID(dc))
		}
		eng.ScheduleFailure(fe)
	}
	rec, err := eng.Run()
	if err != nil {
		return nil, err
	}
	res := &Result{Policy: eng.Policy().Name(), Epochs: eng.Epoch(), recorder: rec}
	snap := eng.Snapshot()
	res.PartitionCopies = snap.PartitionCopies
	for _, d := range snap.PerDC {
		res.Placement = append(res.Placement, PlacementDC{
			DC: int(d.DC), Name: d.Name, AliveServers: d.AliveServers,
			Replicas: d.Replicas, Primaries: d.Primaries,
		})
	}
	return res, nil
}

// spec maps the world, workload and policy fields of cfg onto the
// shared simulation assembly.
func (cfg Config) spec() experiments.Spec {
	return experiments.Spec{
		WorldDCs:       cfg.WorldDCs,
		Partitions:     cfg.Partitions,
		Workload:       cfg.Workload,
		Lambda:         cfg.Lambda,
		ZipfExponent:   cfg.ZipfExponent,
		DiurnalPeriod:  cfg.DiurnalPeriod,
		DriftHold:      cfg.DriftHold,
		Policy:         cfg.Policy,
		CustomPolicy:   cfg.CustomPolicy,
		CustomWorkload: cfg.CustomWorkload,
	}
}

// buildEngine assembles the simulation a flat Config describes.
func buildEngine(cfg Config) (*sim.Engine, error) {
	scfg := sim.DefaultConfig()
	scfg.Epochs = cfg.Epochs
	scfg.Thresholds = traffic.Thresholds{
		Alpha: cfg.Alpha, Beta: cfg.Beta, Gamma: cfg.Gamma, Delta: cfg.Delta, Mu: cfg.Mu,
	}
	scfg.FailureRate = cfg.FailureRate
	scfg.MinAvailability = cfg.MinAvailability
	scfg.HubCandidates = cfg.HubCandidates
	scfg.Workers = cfg.Workers
	scfg.Seed = cfg.Seed
	scfg.ChurnFailProb = cfg.ChurnFailProb
	scfg.ChurnMTTR = cfg.ChurnMTTR
	scfg.Latency = metrics.DefaultLatencyModel()
	if cfg.HopLatencyMs != 0 {
		scfg.Latency.HopLatencyMs = cfg.HopLatencyMs
	}
	if cfg.ServiceLatencyMs != 0 {
		scfg.Latency.ServiceMs = cfg.ServiceLatencyMs
	}
	if cfg.SLAThresholdMs != 0 {
		scfg.Latency.SLAThresholdMs = cfg.SLAThresholdMs
	}
	switch cfg.Serving {
	case "path", "":
		scfg.Serving = sim.ServePath
	case "nearest":
		scfg.Serving = sim.ServeNearest
	default:
		return nil, fmt.Errorf("rfh: unknown serving model %q (want path or nearest)", cfg.Serving)
	}
	return experiments.NewEngine(cfg.spec(), scfg)
}

// LoadTraceWorkload parses a CSV demand trace (rows of
// "epoch,partition,q_dc0,...,q_dcN-1") into a generator that replays
// and cycles it — the hook for driving the simulator with production
// traces. partitions and dcs must match the run's dimensions.
func LoadTraceWorkload(name string, r io.Reader, partitions, dcs int) (WorkloadGenerator, error) {
	return workload.NewTrace(name, r, partitions, dcs)
}

// EmitTrace writes the configured workload's demand as a CSV trace
// ("epoch,partition,q_dc0,...") for the given number of epochs — the
// counterpart of LoadTraceWorkload, useful for sharing reproducible
// demand between tools.
func EmitTrace(w io.Writer, cfg Config, epochs int) error {
	if epochs <= 0 {
		return fmt.Errorf("rfh: trace needs at least one epoch")
	}
	world, gen, err := cfg.spec().Demand(cfg.Epochs, cfg.Seed)
	if err != nil {
		return err
	}
	cw := csv.NewWriter(w)
	row := make([]string, 2+world.NumDCs())
	for e := 0; e < epochs; e++ {
		m := gen.Epoch(e)
		for p := 0; p < m.Partitions(); p++ {
			row[0] = strconv.Itoa(e)
			row[1] = strconv.Itoa(p)
			for d, q := range m.Q[p] {
				row[2+d] = strconv.Itoa(q)
			}
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// NumServers returns the number of physical servers in the paper world
// (10 datacenters × 1 room × 2 racks × 5 servers).
func NumServers() int {
	return topology.PaperWorld().NumDCs() * 10
}
