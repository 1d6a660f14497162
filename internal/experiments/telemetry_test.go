package experiments

import (
	"testing"

	"ampsinf/internal/obs"
)

// withMetrics installs a fresh registry for the test's Envs and removes
// it when the test ends.
func withMetrics(t *testing.T) *obs.Metrics {
	t.Helper()
	mx := obs.NewMetrics()
	SetMetrics(mx)
	t.Cleanup(func() { SetMetrics(nil) })
	return mx
}

// TestServedDeploymentsReportJobs: every request the serving sweep
// serves is a coordinator job on a deployment wired to the registry, so
// the coordinator counts as many jobs as the serving layer.
func TestServedDeploymentsReportJobs(t *testing.T) {
	mx := withMetrics(t)
	if _, err := runServingScaling("mobilenet", 10, 0.5, ServingSeed, []int{0, 4}); err != nil {
		t.Fatal(err)
	}
	c := mx.Snapshot().Counters
	served, jobs := c["serving_jobs_total"], c[`coordinator_jobs_total{mode="eager"}`]
	if served != 20 || jobs != served {
		t.Errorf("coordinator counted %d jobs for %d served requests, want 20 and 20", jobs, served)
	}
}

// TestRunOneReportsItsJob: an experiment built on runOne records one
// coordinator job per run.
func TestRunOneReportsItsJob(t *testing.T) {
	mx := withMetrics(t)
	r, err := Figure1()
	if err != nil {
		t.Fatal(err)
	}
	if got := mx.Snapshot().Counters[`coordinator_jobs_total{mode="eager"}`]; got != int64(len(r.Points)) {
		t.Errorf("coordinator counted %d jobs for %d runs", got, len(r.Points))
	}
}

// TestQuantizationAblationReportsItsJobs: the quantization ablation
// builds its three clouds through NewEnv, so each cold serve counts as a
// coordinator job in the installed registry.
func TestQuantizationAblationReportsItsJobs(t *testing.T) {
	mx := withMetrics(t)
	r, err := AblationQuantization()
	if err != nil {
		t.Fatal(err)
	}
	if got := mx.Snapshot().Counters[`coordinator_jobs_total{mode="eager"}`]; got != 3 || len(r.Rows) != 3 {
		t.Errorf("coordinator counted %d jobs for %d rows, want 3 and 3", got, len(r.Rows))
	}
}
