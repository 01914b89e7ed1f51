package rfh_test

// The benchmark harness regenerates every table and figure of the
// paper's evaluation section:
//
//	go test -bench=. -benchmem
//
// One benchmark per artefact. Each iteration reproduces the figure from
// scratch (all four policies simulated over the full paper horizon) and
// reports the figure's headline quantities as custom benchmark metrics,
// so the benchmark output doubles as the experiment record:
//
//	BenchmarkFig3aUtilizationRandom ... rfh_util=0.76 random_util=0.43 ...
//
// Absolute values are this simulator's, not the authors' testbed's; the
// *shape* relations (who wins, by what factor) are asserted separately
// by the shape-check tests in internal/experiments.

import (
	"testing"

	rfh "repro"
)

// benchOpts are the paper's experiment dimensions.
func benchOpts() rfh.ExperimentOptions {
	return rfh.ExperimentOptions{} // zero value = paper defaults
}

// figureBench reproduces one figure per iteration and reports the tail
// mean of every curve as a metric.
func figureBench(b *testing.B, id string) {
	b.Helper()
	var fig *rfh.Figure
	for i := 0; i < b.N; i++ {
		exp, err := rfh.NewExperiments(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		fig, err = exp.Figure(id)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range fig.Series {
		if len(s.Points) == 0 {
			continue
		}
		tail := s.Points[len(s.Points)*3/4:]
		sum := 0.0
		for _, v := range tail {
			sum += v
		}
		b.ReportMetric(sum/float64(len(tail)), s.Name+"_late")
	}
}

// BenchmarkTableI echoes the experiment configuration (Table I); its
// "metric" is the parameter count so a changed table shows up in diffs.
func BenchmarkTableI(b *testing.B) {
	var rows [][2]string
	for i := 0; i < b.N; i++ {
		exp, err := rfh.NewExperiments(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		rows = exp.TableI()
	}
	b.ReportMetric(float64(len(rows)), "parameters")
}

// Fig. 3: replica utilization rate.
func BenchmarkFig3aUtilizationRandom(b *testing.B) { figureBench(b, "3a") }
func BenchmarkFig3bUtilizationFlash(b *testing.B)  { figureBench(b, "3b") }

// Fig. 4: replica number.
func BenchmarkFig4aReplicaTotalRandom(b *testing.B) { figureBench(b, "4a") }
func BenchmarkFig4bReplicaAvgRandom(b *testing.B)   { figureBench(b, "4b") }
func BenchmarkFig4cReplicaTotalFlash(b *testing.B)  { figureBench(b, "4c") }
func BenchmarkFig4dReplicaAvgFlash(b *testing.B)    { figureBench(b, "4d") }

// Fig. 5: replication cost.
func BenchmarkFig5aReplCostTotalRandom(b *testing.B) { figureBench(b, "5a") }
func BenchmarkFig5bReplCostAvgRandom(b *testing.B)   { figureBench(b, "5b") }
func BenchmarkFig5cReplCostTotalFlash(b *testing.B)  { figureBench(b, "5c") }
func BenchmarkFig5dReplCostAvgFlash(b *testing.B)    { figureBench(b, "5d") }

// Fig. 6: migration times.
func BenchmarkFig6aMigrTimesTotalRandom(b *testing.B) { figureBench(b, "6a") }
func BenchmarkFig6bMigrTimesAvgRandom(b *testing.B)   { figureBench(b, "6b") }
func BenchmarkFig6cMigrTimesTotalFlash(b *testing.B)  { figureBench(b, "6c") }
func BenchmarkFig6dMigrTimesAvgFlash(b *testing.B)    { figureBench(b, "6d") }

// Fig. 7: migration cost.
func BenchmarkFig7aMigrCostTotalRandom(b *testing.B) { figureBench(b, "7a") }
func BenchmarkFig7bMigrCostAvgRandom(b *testing.B)   { figureBench(b, "7b") }
func BenchmarkFig7cMigrCostTotalFlash(b *testing.B)  { figureBench(b, "7c") }
func BenchmarkFig7dMigrCostAvgFlash(b *testing.B)    { figureBench(b, "7d") }

// Fig. 8: load imbalance.
func BenchmarkFig8aLoadImbalanceRandom(b *testing.B) { figureBench(b, "8a") }
func BenchmarkFig8bLoadImbalanceFlash(b *testing.B)  { figureBench(b, "8b") }

// Fig. 9: lookup path length.
func BenchmarkFig9aPathLengthRandom(b *testing.B) { figureBench(b, "9a") }
func BenchmarkFig9bPathLengthFlash(b *testing.B)  { figureBench(b, "9b") }

// Fig. 10: node failure and recovery (RFH only; reports the replica
// fleet before the failure, right after, and at the end of the run).
func BenchmarkFig10FailureRecovery(b *testing.B) {
	var fig *rfh.Figure
	for i := 0; i < b.N; i++ {
		exp, err := rfh.NewExperiments(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		fig, err = exp.Figure("10")
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range fig.Series {
		if s.Name != rfh.SeriesTotalReplicas {
			continue
		}
		failEpoch := 290
		b.ReportMetric(s.Points[failEpoch-1], "replicas_pre_failure")
		b.ReportMetric(s.Points[failEpoch], "replicas_at_failure")
		b.ReportMetric(s.Points[len(s.Points)-1], "replicas_recovered")
	}
}

// Ablations: design-choice sweeps called out in DESIGN.md. Each reports
// the spread (max-min) the parameter induces on steady replica count —
// the sensitivity the paper never quantifies.
func ablationBench(b *testing.B, param string) {
	b.Helper()
	var points []rfh.AblationPoint
	for i := 0; i < b.N; i++ {
		exp, err := rfh.NewExperiments(rfh.ExperimentOptions{EpochsRandom: 120})
		if err != nil {
			b.Fatal(err)
		}
		points, _, err = exp.Ablation(param)
		if err != nil {
			b.Fatal(err)
		}
	}
	lo, hi := points[0].Replicas, points[0].Replicas
	uLo, uHi := points[0].Utilization, points[0].Utilization
	for _, p := range points[1:] {
		if p.Replicas < lo {
			lo = p.Replicas
		}
		if p.Replicas > hi {
			hi = p.Replicas
		}
		if p.Utilization < uLo {
			uLo = p.Utilization
		}
		if p.Utilization > uHi {
			uHi = p.Utilization
		}
	}
	b.ReportMetric(hi-lo, "replica_spread")
	b.ReportMetric(uHi-uLo, "util_spread")
}

func BenchmarkAblationAlpha(b *testing.B)   { ablationBench(b, "alpha") }
func BenchmarkAblationBeta(b *testing.B)    { ablationBench(b, "beta") }
func BenchmarkAblationGamma(b *testing.B)   { ablationBench(b, "gamma") }
func BenchmarkAblationDelta(b *testing.B)   { ablationBench(b, "delta") }
func BenchmarkAblationMu(b *testing.B)      { ablationBench(b, "mu") }
func BenchmarkAblationHubK(b *testing.B)    { ablationBench(b, "hubK") }
func BenchmarkAblationServing(b *testing.B) { ablationBench(b, "serving") }
