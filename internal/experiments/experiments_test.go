package experiments

import (
	"testing"

	"repro/internal/metrics"
)

// quickOpts shrinks the campaigns so the full suite runs in CI time
// while keeping every stage boundary meaningful.
func quickOpts() Options {
	opts := DefaultOptions()
	opts.EpochsRandom = 120
	opts.EpochsFlash = 200
	opts.EpochsFailure = 200
	opts.FailEpoch = 120
	return opts
}

func quickSuite(t *testing.T) *Suite {
	t.Helper()
	s, err := NewSuite(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestOptionsValidation(t *testing.T) {
	muts := []func(*Options){
		func(o *Options) { o.EpochsRandom = 5 },
		func(o *Options) { o.FailEpoch = 0 },
		func(o *Options) { o.FailEpoch = o.EpochsFailure },
		func(o *Options) { o.FailServers = 0 },
		func(o *Options) { o.Lambda = 0 },
	}
	for i, mut := range muts {
		o := DefaultOptions()
		mut(&o)
		if err := o.Validate(); err == nil {
			t.Errorf("mutation %d validated", i)
		}
	}
	if err := DefaultOptions().Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewSuite(Options{}); err == nil {
		t.Fatal("zero options accepted")
	}
}

func TestFigureIDsAllResolvable(t *testing.T) {
	s := quickSuite(t)
	for _, id := range FigureIDs() {
		fig, err := s.Figure(id)
		if err != nil {
			t.Fatalf("figure %s: %v", id, err)
		}
		if len(fig.Series) == 0 {
			t.Fatalf("figure %s has no series", id)
		}
		if fig.Title == "" || fig.YLabel == "" {
			t.Fatalf("figure %s missing labels", id)
		}
		for _, ser := range fig.Series {
			if len(ser.Points) == 0 {
				t.Fatalf("figure %s series %s empty", id, ser.Name)
			}
		}
	}
}

func TestUnknownFigureRejected(t *testing.T) {
	s := quickSuite(t)
	if _, err := s.Figure("99z"); err == nil {
		t.Fatal("unknown figure accepted")
	}
	if _, err := s.CheckFigure("99z"); err == nil {
		t.Fatal("unknown figure check accepted")
	}
}

func TestCampaignsAreCached(t *testing.T) {
	s := quickSuite(t)
	a, err := s.RandomRuns()
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.RandomRuns()
	if err != nil {
		t.Fatal(err)
	}
	if &a[0] != &b[0] {
		t.Fatal("random campaign re-ran instead of using the cache")
	}
}

func TestCampaignCoversAllPolicies(t *testing.T) {
	s := quickSuite(t)
	runs, err := s.RandomRuns()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 4 {
		t.Fatalf("campaign has %d runs", len(runs))
	}
	seen := map[string]bool{}
	for _, r := range runs {
		seen[r.Policy] = true
		if r.Recorder.Epochs() != quickOpts().EpochsRandom {
			t.Fatalf("%s recorded %d epochs", r.Policy, r.Recorder.Epochs())
		}
	}
	for _, name := range PolicyNames {
		if !seen[name] {
			t.Fatalf("policy %s missing from campaign", name)
		}
	}
}

// TestAllShapeClaims is the repository's headline integration test: the
// paper's qualitative claims must hold for every figure.
func TestAllShapeClaims(t *testing.T) {
	s := quickSuite(t)
	reports, err := s.CheckAll()
	if err != nil {
		t.Fatal(err)
	}
	total, failed := 0, 0
	for _, rep := range reports {
		for _, c := range rep.Claims {
			total++
			if !c.Pass {
				failed++
				t.Errorf("fig %-3s: %s (%s)", rep.Figure, c.Description, c.Detail)
			}
		}
	}
	if total < 40 {
		t.Fatalf("only %d claims checked; coverage regressed", total)
	}
	t.Logf("%d/%d shape claims hold", total-failed, total)
}

func TestFailureRunMeta(t *testing.T) {
	s := quickSuite(t)
	run, err := s.FailureRun()
	if err != nil {
		t.Fatal(err)
	}
	if run.Policy != "rfh" {
		t.Fatalf("failure run uses %s", run.Policy)
	}
	alive := run.Recorder.Series(metrics.SeriesAliveServers).Points
	fe := quickOpts().FailEpoch
	if alive[fe-1] != 100 || alive[fe] != 100-float64(quickOpts().FailServers) {
		t.Fatalf("alive at failure: %g -> %g", alive[fe-1], alive[fe])
	}
}

func TestTableIRows(t *testing.T) {
	s := quickSuite(t)
	rows := s.TableI()
	if len(rows) != 15 {
		t.Fatalf("Table I has %d rows, want 15", len(rows))
	}
	want := map[string]string{
		"Max server storage capacity": "10 GB",
		"Server storage rate limit":   "70%",
		"Replication bandwidth":       "300 MB/epoch",
		"Migration bandwidth":         "100 MB/epoch",
		"Partitions":                  "64",
		"Partition size":              "512 KB",
	}
	got := map[string]string{}
	for _, r := range rows {
		got[r[0]] = r[1]
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("Table I row %q = %q, want %q", k, got[k], v)
		}
	}
}

func TestFiguresReturnCopies(t *testing.T) {
	s := quickSuite(t)
	a, err := s.Figure("3a")
	if err != nil {
		t.Fatal(err)
	}
	a.Series[0].Points[0] = -999
	b, err := s.Figure("3a")
	if err != nil {
		t.Fatal(err)
	}
	if b.Series[0].Points[0] == -999 {
		t.Fatal("figure points alias the cached recorder")
	}
}

// TestAllShapeClaimsFullScale repeats the headline verification at the
// paper's exact dimensions (250/400/500-epoch runs). Slower than the
// quick variant; skipped under -short.
func TestAllShapeClaimsFullScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale campaign is slow")
	}
	s, err := NewSuite(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	reports, err := s.CheckAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range reports {
		for _, c := range rep.Claims {
			if !c.Pass {
				t.Errorf("fig %-3s: %s (%s)", rep.Figure, c.Description, c.Detail)
			}
		}
	}
}
