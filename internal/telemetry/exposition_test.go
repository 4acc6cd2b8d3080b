package telemetry

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// everyKindRegistry holds one family of each kind the renderer knows,
// with the values that exercise its escaping and histogram bounds.
func everyKindRegistry(t *testing.T) *Registry {
	r := New()
	r.Counter("radiomisd_jobs_done_total", "Jobs finished.\nA second line with a \\ backslash.").Add(6)
	r.Counter("bare_total", "")
	r.Gauge("radiomisd_queue_depth", "Jobs currently waiting.").Set(-3)
	r.LabeledGauge("radiomisd_build_info", "Build identity (value is always 1).",
		Label{Key: "version", Value: `C:\tmp"x"` + "\n"}, Label{Key: "revision", Value: "abc"}).Set(1)
	vec := r.CounterVec("radiomisd_engine_scalar_fallback_total", "Trials routed to the scalar engine.", "reason")
	vec.With("faults").Add(2)
	vec.With("forced").Add(5)
	dur := r.Histogram("radiomisd_job_run_seconds", "Job execution wall time.")
	for _, ns := range []uint64{0, 5, 150_000, 2_000_000, 300_000_000, 7_000_000_000, 400_000_000_000} {
		dur.Observe(ns)
	}
	cnt := r.CountHistogram("radiomisd_schedule_batch_size", "Vertices per batch.")
	for _, v := range []uint64{1, 3, 40, 700, 20_000} {
		cnt.Observe(v)
	}
	r.Histogram("radiomisd_idle_seconds", "Never observed.")
	return r
}

// jobFoldRegistry is a daemon-shaped registry after two job-shaped
// registries, one lockstep batch and one scalar-fallback batch, folded
// into it: families the daemon registered keep its help text, and the
// families only a job recorded are added in the job's order.
func jobFoldRegistry(t *testing.T) *Registry {
	daemon := New()
	daemon.Counter("radiomisd_jobs_done_total", "Jobs finished successfully.").Add(2)
	daemon.Counter("radiomis_trials_total", "Completed harness trials across all jobs.").Add(10)
	daemon.Histogram("radiomis_trial_duration_seconds", "Wall-clock duration of one harness trial.").Observe(40_000_000)
	daemon.CounterVec("radiomisd_engine_scalar_fallback_total", "Solve trials routed to the scalar engine, by fallback reason.", "reason").
		With("forced").Add(1)
	daemon.LabeledGauge("radiomisd_build_info", "Build identity of the running radiomisd binary (value is always 1).",
		Label{Key: "version", Value: "devel"}).Set(1)

	lockstepJob := New()
	trial := lockstepJob.Histogram("radiomis_trial_duration_seconds", "Wall-clock duration of one harness trial.")
	for _, ns := range []uint64{17_000_000, 17_500_000, 18_000_000} {
		trial.Observe(ns)
	}
	lockstepJob.Counter("radiomis_trials_total", "Completed harness trials.").Add(65)
	lockstepJob.Counter("radiomisd_engine_lane_trials_total", "Trials executed on the bit-parallel lockstep engine.").Add(65)
	lanes := lockstepJob.CountHistogram("radiomisd_engine_lanes_occupied", "Bit-lanes occupied per lockstep engine batch.")
	lanes.Observe(64)
	lanes.Observe(1)

	scalarJob := New()
	scalarJob.CounterVec("radiomisd_engine_scalar_fallback_total", "Solve trials routed to the scalar engine, by fallback reason.", "reason").
		With("faults").Add(2)
	trial = scalarJob.Histogram("radiomis_trial_duration_seconds", "Wall-clock duration of one harness trial.")
	trial.Observe(900_000_000)
	trial.Observe(1_200_000_000)
	scalarJob.Counter("radiomis_trials_total", "Completed harness trials.").Add(2)

	for _, job := range []*Registry{lockstepJob, scalarJob} {
		if err := daemon.Merge(job); err != nil {
			t.Fatal(err)
		}
	}
	return daemon
}

// TestExpositionGolden pins WritePrometheus byte for byte against
// expositions recorded in testdata/.
func TestExpositionGolden(t *testing.T) {
	for name, build := range map[string]func(*testing.T) *Registry{
		"every_kind": everyKindRegistry,
		"job_fold":   jobFoldRegistry,
	} {
		t.Run(name, func(t *testing.T) {
			var got strings.Builder
			if err := build(t).WritePrometheus(&got); err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", name+".prom"))
			if err != nil {
				t.Fatal(err)
			}
			if got.String() != string(want) {
				t.Errorf("exposition differs from testdata/%s.prom:\ngot:\n%s\nwant:\n%s", name, got.String(), want)
			}
			validateExposition(t, got.String())
		})
	}
}
