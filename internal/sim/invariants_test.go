package sim

import (
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/policy"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/workload"
)

// TestChaosInvariants runs randomized scenarios — random policy,
// workload, serving model, churn, scheduled failures and joins — and
// asserts the invariants that must hold regardless of configuration:
//
//  1. every partition keeps at least one copy with a valid primary;
//  2. the storage ledger equals replicas × partition size;
//  3. no replica lives on a dead server;
//  4. cumulative cost/migration series never decrease;
//  5. utilization and SLA stay within [0, 1];
//  6. all series have exactly one point per epoch.
func TestChaosInvariants(t *testing.T) {
	scenario := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		w := topology.PaperWorld()
		rt, err := network.NewRouter(w)
		if err != nil {
			return false
		}
		spec := cluster.DefaultSpec()
		spec.Partitions = 8 + rng.Intn(16)
		spec.Seed = seed
		cl, err := cluster.New(w, spec)
		if err != nil {
			return false
		}

		wcfg := workload.Config{
			Partitions: spec.Partitions,
			DCs:        w.NumDCs(),
			Lambda:     50 + float64(rng.Intn(400)),
			Seed:       seed ^ 0xF00D,
		}
		var gen workload.Generator
		switch rng.Intn(4) {
		case 0:
			gen, err = workload.NewUniform(wcfg)
		case 1:
			gen, err = workload.NewPaperFlashCrowd(wcfg, w, 40)
		case 2:
			gen, err = workload.NewZipfPartitions(wcfg, 0.5+rng.Float64())
		default:
			gen, err = workload.NewDrift(wcfg, 5+rng.Intn(10), 0.7)
		}
		if err != nil {
			return false
		}

		var pol policy.Policy
		switch rng.Intn(5) {
		case 0:
			pol = core.NewRFH()
		case 1:
			pol = policy.NewRandom()
		case 2:
			pol = policy.NewOwnerOriented()
		case 3:
			pol = policy.NewRequestOriented(0.2)
		default:
			pol = policy.NewEAD(5 + rng.Intn(20))
		}

		cfg := DefaultConfig()
		cfg.Epochs = 40
		cfg.Seed = seed
		cfg.Serving = ServingModel(rng.Intn(2))
		if rng.Bool(0.5) {
			cfg.ChurnFailProb = 0.02 * rng.Float64()
			cfg.ChurnMTTR = 5 + rng.Intn(10)
		}
		eng, err := New(cl, rt, gen, pol, cfg)
		if err != nil {
			return false
		}
		defer eng.Close()
		if rng.Bool(0.5) {
			var victims []cluster.ServerID
			for len(victims) < 10+rng.Intn(20) {
				victims = append(victims, cluster.ServerID(rng.Intn(cl.NumServers())))
			}
			eng.ScheduleFailure(FailureEvent{Epoch: 10 + rng.Intn(20), Fail: victims})
		}
		if rng.Bool(0.3) {
			eng.ScheduleFailure(FailureEvent{
				Epoch: 5 + rng.Intn(30),
				Join:  []topology.DCID{topology.DCID(rng.Intn(w.NumDCs()))},
			})
		}

		rec, err := eng.Run()
		if err != nil {
			t.Logf("seed %d: run failed: %v", seed, err)
			return false
		}

		// (1) and (3): placement sanity.
		for p := 0; p < cl.NumPartitions(); p++ {
			if cl.ReplicaCount(p) < 1 {
				t.Logf("seed %d: partition %d empty", seed, p)
				return false
			}
			primary := cl.Primary(p)
			if primary < 0 || !cl.HasReplica(p, primary) || !cl.Server(primary).Alive() {
				t.Logf("seed %d: partition %d primary invalid", seed, p)
				return false
			}
			for _, s := range cl.ReplicaServers(p) {
				if !cl.Server(s).Alive() {
					t.Logf("seed %d: replica on dead server %d", seed, s)
					return false
				}
			}
		}
		// (2): storage ledger.
		var stored int64
		for i := 0; i < cl.NumServers(); i++ {
			stored += cl.Server(cluster.ServerID(i)).StorageUsed()
		}
		if stored != int64(cl.TotalReplicas())*spec.PartitionSize {
			t.Logf("seed %d: storage ledger mismatch", seed)
			return false
		}
		// (4): monotone cumulative series.
		for _, name := range []string{metrics.SeriesReplCost, metrics.SeriesMigrCost, metrics.SeriesMigrTimes} {
			pts := rec.Series(name).Points
			for i := 1; i < len(pts); i++ {
				if pts[i] < pts[i-1]-1e-9 {
					t.Logf("seed %d: %s decreased", seed, name)
					return false
				}
			}
		}
		// (5): bounded fractions.
		for _, name := range []string{metrics.SeriesUtilization, metrics.SeriesSLAFrac, metrics.SeriesUnservedFrac} {
			for _, v := range rec.Series(name).Points {
				if v < 0 || v > 1 {
					t.Logf("seed %d: %s = %g out of range", seed, name, v)
					return false
				}
			}
		}
		// (6): rectangular recorder.
		if err := rec.Validate(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(scenario, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}
