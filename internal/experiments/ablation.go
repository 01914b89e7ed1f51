package experiments

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// AblationPoint is one row of a parameter sweep: the parameter value
// and the steady-state outcomes it produced for the RFH policy under
// the random-query setting.
type AblationPoint struct {
	Value        float64
	Utilization  float64 // tail mean of Fig. 3 metric
	Replicas     float64 // tail mean of total replicas
	ReplCost     float64 // final cumulative replication cost
	Migrations   float64 // final cumulative migrations
	PathLength   float64 // tail mean lookup hops
	UnservedFrac float64 // tail mean overflow fraction
}

// Ablation is one parameter sweep.
type Ablation struct {
	Parameter string
	Points    []AblationPoint
}

// AblationNames lists the supported sweeps: the four decision
// thresholds, the hub candidate-set size K (the paper fixes 3), and the
// serving model (0 = path, 1 = nearest).
func AblationNames() []string {
	return []string{"alpha", "beta", "gamma", "delta", "mu", "hubK", "serving"}
}

// defaultSweeps gives each parameter a sensible grid around its Table I
// value.
func defaultSweeps() map[string][]float64 {
	return map[string][]float64{
		"alpha":   {0.05, 0.1, 0.2, 0.4, 0.8},
		"beta":    {1.2, 1.5, 2, 3, 4},
		"gamma":   {1.1, 1.5, 2, 3},
		"delta":   {0.05, 0.1, 0.2, 0.4},
		"mu":      {0.25, 0.5, 1, 2},
		"hubK":    {1, 2, 3, 5, 8},
		"serving": {0, 1},
	}
}

// RunAblation sweeps one parameter for the RFH policy under the random
// query setting with the suite's dimensions, one full simulation per
// grid point.
func (s *Suite) RunAblation(param string) (*Ablation, error) {
	grid, ok := defaultSweeps()[param]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown ablation parameter %q (want one of %v)", param, AblationNames())
	}
	out := &Ablation{Parameter: param}
	for _, v := range grid {
		pt, err := s.ablationPoint(param, v)
		if err != nil {
			return nil, err
		}
		out.Points = append(out.Points, pt)
	}
	return out, nil
}

// ablationPoint runs one RFH simulation with the parameter overridden.
func (s *Suite) ablationPoint(param string, v float64) (AblationPoint, error) {
	cfg := s.simConfig(s.opts.EpochsRandom)
	th := traffic.DefaultThresholds()
	switch param {
	case "alpha":
		th.Alpha = v
	case "beta":
		th.Beta = v
	case "gamma":
		th.Gamma = v
	case "delta":
		th.Delta = v
	case "mu":
		th.Mu = v
	case "hubK":
		cfg.HubCandidates = int(v)
	case "serving":
		cfg.Serving = sim.ServingModel(int(v))
	}
	cfg.Thresholds = th
	eng, err := NewEngine(s.spec("rfh", "uniform"), cfg)
	if err != nil {
		return AblationPoint{}, err
	}
	rec, err := eng.Run()
	eng.Close()
	if err != nil {
		return AblationPoint{}, err
	}
	get := func(name string) []float64 { return rec.Series(name).Points }
	return AblationPoint{
		Value:        v,
		Utilization:  tail(get(metrics.SeriesUtilization)),
		Replicas:     tail(get(metrics.SeriesTotalReplicas)),
		ReplCost:     rec.Series(metrics.SeriesReplCost).Last(),
		Migrations:   rec.Series(metrics.SeriesMigrTimes).Last(),
		PathLength:   tail(get(metrics.SeriesPathLength)),
		UnservedFrac: tail(get(metrics.SeriesUnservedFrac)),
	}, nil
}

// Summary renders the ablation as aligned text rows.
func (a *Ablation) Summary() string {
	out := fmt.Sprintf("ablation %-8s %10s %10s %10s %10s %10s %10s\n",
		a.Parameter, "util", "replicas", "replCost", "migr", "path", "unserved")
	for _, p := range a.Points {
		out += fmt.Sprintf("  %-14.3g %10.3f %10.1f %10.3f %10.0f %10.2f %10.4f\n",
			p.Value, p.Utilization, p.Replicas, p.ReplCost, p.Migrations, p.PathLength, p.UnservedFrac)
	}
	return out
}

// Monotone reports whether the named outcome moves monotonically (in
// either direction) across the sweep, within tolerance tol — a quick
// sanity probe used by tests.
func (a *Ablation) Monotone(outcome func(AblationPoint) float64, tol float64) bool {
	if len(a.Points) < 2 {
		return true
	}
	vals := make([]float64, len(a.Points))
	for i, p := range a.Points {
		vals[i] = outcome(p)
	}
	up, down := true, true
	for i := 1; i < len(vals); i++ {
		if vals[i] < vals[i-1]-tol {
			up = false
		}
		if vals[i] > vals[i-1]+tol {
			down = false
		}
	}
	return up || down
}

// Spread returns max-min of an outcome over the sweep.
func (a *Ablation) Spread(outcome func(AblationPoint) float64) float64 {
	if len(a.Points) == 0 {
		return 0
	}
	vals := make([]float64, len(a.Points))
	for i, p := range a.Points {
		vals[i] = outcome(p)
	}
	return stats.Max(vals) - stats.Min(vals)
}
