package rfh

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/experiments"
)

func quickConfig() Config {
	cfg := DefaultConfig()
	cfg.Epochs = 40
	cfg.Partitions = 16
	return cfg
}

func TestRunAllBuiltinPolicies(t *testing.T) {
	for _, pol := range []string{"rfh", "random", "owner", "request", "ead"} {
		cfg := quickConfig()
		cfg.Policy = pol
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		if res.Policy != pol {
			t.Fatalf("result policy = %s", res.Policy)
		}
		if res.Epochs != 40 {
			t.Fatalf("%s: epochs = %d", pol, res.Epochs)
		}
		if got := res.Final(SeriesTotalReplicas); got < 16 {
			t.Fatalf("%s: %g replicas below partition count", pol, got)
		}
		u := res.Final(SeriesUtilization)
		if u <= 0 || u > 1 {
			t.Fatalf("%s: utilization %g", pol, u)
		}
	}
}

func TestRunAllWorkloads(t *testing.T) {
	for _, wl := range []string{"uniform", "flash", "zipf", "diurnal", "drift"} {
		cfg := quickConfig()
		cfg.Workload = wl
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		if len(res.Series(SeriesUtilization)) != 40 {
			t.Fatalf("%s: wrong series length", wl)
		}
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Policy = "zeus" },
		func(c *Config) { c.Workload = "storm" },
		func(c *Config) { c.Serving = "teleport" },
		func(c *Config) { c.Epochs = 0 },
		func(c *Config) { c.Beta = 0.5 },
		func(c *Config) { c.Lambda = -1 },
	}
	for i, mut := range bad {
		cfg := quickConfig()
		mut(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	run := func() []float64 {
		res, err := Run(quickConfig())
		if err != nil {
			t.Fatal(err)
		}
		return res.Series(SeriesUtilization)
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed runs diverge at epoch %d", i)
		}
	}
}

func TestResultAccessors(t *testing.T) {
	res, err := Run(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Names()) < 10 {
		t.Fatalf("names = %v", res.Names())
	}
	if res.Series("no-such-series") != nil {
		t.Fatal("unknown series not nil")
	}
	if res.Final("no-such-series") != 0 || res.Mean("no-such-series") != 0 {
		t.Fatal("unknown series stats not zero")
	}
	// Series returns a copy.
	s := res.Series(SeriesUtilization)
	s[0] = -1
	if res.Series(SeriesUtilization)[0] == -1 {
		t.Fatal("Series aliases internal state")
	}
	if res.Mean(SeriesUtilization) <= 0 {
		t.Fatal("mean utilization not positive")
	}
}

func TestRunWithFailures(t *testing.T) {
	cfg := quickConfig()
	res, err := RunWithFailures(cfg, []FailureEvent{
		{Epoch: 10, Fail: []int{0, 1, 2}},
		{Epoch: 25, Recover: []int{0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	alive := res.Series(SeriesAliveServers)
	if alive[9] != 100 || alive[10] != 97 || alive[25] != 98 {
		t.Fatalf("alive trajectory: %g, %g, %g", alive[9], alive[10], alive[25])
	}
}

func TestCustomPolicy(t *testing.T) {
	cfg := quickConfig()
	cfg.CustomPolicy = noopPolicy{}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != "noop" {
		t.Fatalf("policy = %s", res.Policy)
	}
	// A policy that never replicates leaves exactly one copy per
	// partition (the seeded primary).
	if got := res.Final(SeriesTotalReplicas); got != 16 {
		t.Fatalf("noop run ended with %g replicas", got)
	}
}

// noopPolicy does nothing, validating the custom-policy extension point.
type noopPolicy struct{}

func (noopPolicy) Name() string                   { return "noop" }
func (noopPolicy) Decide(*PolicyContext) Decision { return Decision{} }

// TestRunMatchesSuite pins the facade and the experiment suite to one
// simulation assembly: rfh.Run at the defaults reproduces every series
// of the suite's random-query campaign, policy by policy.
func TestRunMatchesSuite(t *testing.T) {
	opts := experiments.DefaultOptions()
	opts.EpochsRandom = 60
	s, err := experiments.NewSuite(opts)
	if err != nil {
		t.Fatal(err)
	}
	runs, err := s.RandomRuns()
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range runs {
		cfg := DefaultConfig()
		cfg.Policy = run.Policy
		cfg.Epochs = opts.EpochsRandom
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", run.Policy, err)
		}
		for _, name := range run.Recorder.Names() {
			want := run.Recorder.Series(name).Points
			got := res.Series(name)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s: series %s diverges from the suite's run", run.Policy, name)
			}
		}
	}
}

func TestNumServers(t *testing.T) {
	if NumServers() != 100 {
		t.Fatalf("NumServers = %d", NumServers())
	}
}

func TestExperimentsFacade(t *testing.T) {
	exp, err := NewExperiments(ExperimentOptions{
		EpochsRandom: 60, EpochsFlash: 80, EpochsFailure: 80, FailEpoch: 40, FailServers: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	fig, err := exp.Figure("3a")
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 4 {
		t.Fatalf("figure 3a has %d series", len(fig.Series))
	}
	claims, err := exp.Check("3a")
	if err != nil {
		t.Fatal(err)
	}
	if len(claims) == 0 {
		t.Fatal("no claims for 3a")
	}
	var buf bytes.Buffer
	if err := exp.WriteFigureCSV(&buf, "3a"); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "epoch,") {
		t.Fatalf("CSV header: %q", buf.String()[:20])
	}
	rows := exp.TableI()
	if len(rows) == 0 {
		t.Fatal("empty Table I")
	}
	if _, err := exp.Figure("zz"); err == nil {
		t.Fatal("unknown figure accepted")
	}
	if len(FigureIDs()) != 25 {
		t.Fatalf("FigureIDs = %d entries", len(FigureIDs()))
	}
	if len(AblationNames()) == 0 {
		t.Fatal("no ablation names")
	}
}

func TestExperimentOptionsDefaults(t *testing.T) {
	// Zero options select the paper defaults and validate.
	if _, err := NewExperiments(ExperimentOptions{}); err != nil {
		t.Fatal(err)
	}
	// Invalid overrides surface as errors.
	if _, err := NewExperiments(ExperimentOptions{EpochsFailure: 50, FailEpoch: 60}); err == nil {
		t.Fatal("fail epoch beyond run accepted")
	}
}

func TestSyntheticWorldRun(t *testing.T) {
	cfg := quickConfig()
	cfg.WorldDCs = 24
	cfg.Workload = "drift"
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Final(SeriesAliveServers); got != 240 {
		t.Fatalf("synthetic world servers = %g, want 240", got)
	}
	if res.Final(SeriesUtilization) <= 0 {
		t.Fatal("no serving on the synthetic world")
	}
}

func TestSyntheticWorldRejectsFlash(t *testing.T) {
	cfg := quickConfig()
	cfg.WorldDCs = 16
	cfg.Workload = "flash"
	if _, err := Run(cfg); err == nil {
		t.Fatal("flash on synthetic world accepted")
	}
}

func TestChurnFacade(t *testing.T) {
	cfg := quickConfig()
	cfg.ChurnFailProb = 0.02
	cfg.ChurnMTTR = 8
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	min := 100.0
	for _, v := range res.Series(SeriesAliveServers) {
		if v < min {
			min = v
		}
	}
	if min == 100 {
		t.Fatal("churn never took a server down")
	}
}

func TestSLAFacade(t *testing.T) {
	cfg := quickConfig()
	cfg.SLAThresholdMs = 60 // tight: only 0-1 hop lookups qualify
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Series(SeriesSLAFrac)
	if len(s) != cfg.Epochs {
		t.Fatal("SLA series missing")
	}
	loose := quickConfig()
	looseRes, err := Run(loose)
	if err != nil {
		t.Fatal(err)
	}
	if res.Final(SeriesSLAFrac) > looseRes.Final(SeriesSLAFrac) {
		t.Fatal("tighter SLA bound produced a higher satisfaction fraction")
	}
}

func TestJoinFacade(t *testing.T) {
	cfg := quickConfig()
	res, err := RunWithFailures(cfg, []FailureEvent{{Epoch: 5, JoinDCs: []int{0, 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Final(SeriesAliveServers); got != 102 {
		t.Fatalf("alive after join = %g", got)
	}
}

func TestResultPlacement(t *testing.T) {
	res, err := Run(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Placement) != 10 {
		t.Fatalf("placement rows = %d", len(res.Placement))
	}
	total := 0
	for _, d := range res.Placement {
		total += d.Replicas
	}
	if float64(total) != res.Final(SeriesTotalReplicas) {
		t.Fatalf("placement total %d != series %g", total, res.Final(SeriesTotalReplicas))
	}
	if len(res.PartitionCopies) != 16 {
		t.Fatalf("partition copies = %d rows", len(res.PartitionCopies))
	}
	for p, c := range res.PartitionCopies {
		if c < 1 {
			t.Fatalf("partition %d has %d copies", p, c)
		}
	}
}

func TestCustomWorkloadAndTrace(t *testing.T) {
	// Build a 2-epoch trace for 16 partitions × 10 DCs, all demand at
	// DC 0, and run it through the public API.
	var sb strings.Builder
	for e := 0; e < 2; e++ {
		for p := 0; p < 16; p++ {
			fmt.Fprintf(&sb, "%d,%d,50,0,0,0,0,0,0,0,0,0\n", e, p)
		}
	}
	gen, err := LoadTraceWorkload("test-trace", strings.NewReader(sb.String()), 16, 10)
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickConfig()
	cfg.CustomWorkload = gen
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Final(SeriesUtilization) <= 0 {
		t.Fatal("trace workload produced no serving")
	}
}

func TestEmitTraceRoundTrip(t *testing.T) {
	cfg := quickConfig()
	cfg.Workload = "drift"
	var buf bytes.Buffer
	if err := EmitTrace(&buf, cfg, 3); err != nil {
		t.Fatal(err)
	}
	gen, err := LoadTraceWorkload("replay", bytes.NewReader(buf.Bytes()), 16, 10)
	if err != nil {
		t.Fatal(err)
	}
	// The replayed trace matches the original generator epoch by epoch.
	cfg2 := quickConfig()
	cfg2.CustomWorkload = gen
	res, err := Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Final(SeriesUtilization) <= 0 {
		t.Fatal("replayed trace produced no serving")
	}
	if err := EmitTrace(&buf, cfg, 0); err == nil {
		t.Fatal("zero-epoch trace accepted")
	}
	bad := quickConfig()
	bad.Workload = "storm"
	if err := EmitTrace(&buf, bad, 2); err == nil {
		t.Fatal("bad workload accepted")
	}
}
