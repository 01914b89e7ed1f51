package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Spec names what one simulation runs on: the world, the partitions,
// the demand and the policy. Zero values select the paper's setting
// (10 datacenters, 64 partitions, uniform demand, RFH).
type Spec struct {
	// WorldDCs, when > 0, replaces the paper world with a random-
	// geometric world of that many datacenters (10 servers each).
	WorldDCs int
	// Partitions overrides the Table I partition count when > 0.
	Partitions int

	// Workload is "uniform" (or ""), "flash", "zipf", "diurnal" or
	// "drift"; Lambda is its Poisson mean per partition per epoch.
	Workload string
	Lambda   float64
	// ZipfExponent skews partition popularity for "zipf".
	ZipfExponent float64
	// DiurnalPeriod is the wave length for "diurnal" (0 = half the run).
	DiurnalPeriod int
	// DriftHold is the hotspot dwell for "drift" (0 = 20 epochs).
	DriftHold int

	// Policy is a core.NewPolicy name.
	Policy string

	// CustomPolicy and CustomWorkload, when non-nil, override Policy and
	// Workload.
	CustomPolicy   policy.Policy
	CustomWorkload workload.Generator
}

// NewEngine assembles the world, router, Table I cluster, demand and
// policy sp names into an engine run under cfg. cfg.Seed seeds every
// piece and cfg.Epochs sizes the time-shaped workloads.
func NewEngine(sp Spec, cfg sim.Config) (*sim.Engine, error) {
	w, gen, err := sp.Demand(cfg.Epochs, cfg.Seed)
	if err != nil {
		return nil, err
	}
	rt, err := network.NewRouter(w)
	if err != nil {
		return nil, err
	}
	spec := cluster.DefaultSpec()
	spec.Seed = cfg.Seed
	spec.Partitions = sp.partitions()
	cl, err := cluster.New(w, spec)
	if err != nil {
		return nil, err
	}
	pol := sp.CustomPolicy
	if pol == nil {
		if pol, err = core.NewPolicy(sp.Policy); err != nil {
			return nil, err
		}
	}
	return sim.New(cl, rt, gen, pol, cfg)
}

func (sp Spec) partitions() int {
	if sp.Partitions > 0 {
		return sp.Partitions
	}
	return cluster.DefaultSpec().Partitions
}

// Demand builds the world sp runs on and its demand generator over an
// epochs-long run. The random-geometric world is seeded seed^0x3013
// and the workload seed^0xA11CE.
func (sp Spec) Demand(epochs int, seed uint64) (*topology.World, workload.Generator, error) {
	w := topology.PaperWorld()
	if sp.WorldDCs > 0 {
		var err error
		if w, err = topology.RandomGeometricWorld(sp.WorldDCs, 3, seed^0x3013); err != nil {
			return nil, nil, err
		}
	}
	if sp.CustomWorkload != nil {
		return w, sp.CustomWorkload, nil
	}
	wcfg := workload.Config{
		Partitions: sp.partitions(),
		DCs:        w.NumDCs(),
		Lambda:     sp.Lambda,
		Seed:       seed ^ 0xA11CE,
	}
	var gen workload.Generator
	var err error
	switch sp.Workload {
	case "uniform", "":
		gen, err = workload.NewUniform(wcfg)
	case "flash":
		if sp.WorldDCs > 0 {
			return nil, nil, fmt.Errorf("experiments: the flash workload is defined on the paper world; use drift or diurnal with a synthetic world")
		}
		gen, err = workload.NewPaperFlashCrowd(wcfg, w, epochs)
	case "zipf":
		gen, err = workload.NewZipfPartitions(wcfg, sp.ZipfExponent)
	case "diurnal":
		period := sp.DiurnalPeriod
		if period == 0 {
			period = epochs / 2
		}
		gen, err = workload.NewDiurnal(wcfg, w, period, 0.8)
	case "drift":
		hold := sp.DriftHold
		if hold == 0 {
			hold = 20
		}
		gen, err = workload.NewDrift(wcfg, hold, 0.8)
	default:
		return nil, nil, fmt.Errorf("experiments: unknown workload %q (want uniform, flash, zipf, diurnal or drift)", sp.Workload)
	}
	if err != nil {
		return nil, nil, err
	}
	return w, gen, nil
}
