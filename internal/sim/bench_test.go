package sim_test

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/sim"
)

// stepBench measures steady-state Engine.Step throughput on dcs
// datacenters (10 = the paper world, anything else a synthetic
// random-geometric world) with 10 servers each, over the given
// partition count, driven by the uniform workload and the RFH policy.
// A warmup drives the system past the initial replication burst, then
// each iteration is one full epoch (serve + policy + apply + record).
func stepBench(b *testing.B, dcs, partitions int) {
	b.Helper()
	sp := experiments.Spec{Partitions: partitions, Lambda: 300, Policy: "rfh"}
	if dcs != 10 {
		sp.WorldDCs = dcs
	}
	cfg := sim.DefaultConfig()
	cfg.Epochs = 1 << 30 // stepped manually; never hit by Run
	eng, err := experiments.NewEngine(sp, cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	for i := 0; i < 30; i++ {
		if err := eng.Step(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStepSeedScale is the paper's Table I environment: 10
// datacenters, 100 servers, 64 partitions.
func BenchmarkStepSeedScale(b *testing.B) { stepBench(b, 10, 64) }

// BenchmarkStep10xScale is ten times the seed environment: 100
// datacenters, 1000 servers, 640 partitions.
func BenchmarkStep10xScale(b *testing.B) { stepBench(b, 100, 640) }
