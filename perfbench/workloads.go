package main

import (
	"fmt"

	"repro/internal/array"
	"repro/internal/experiment"
	"repro/internal/workload"
)

// generate times workload.Generate alone.
func generate(cfg workload.GenConfig) (*workload.Trace, float64, error) {
	var tr *workload.Trace
	secs, err := stopwatch(func() (err error) {
		tr, err = workload.Generate(cfg)
		return err
	})
	return tr, secs, err
}

// sweepTrace derives a trace exactly as experiment.RunSweep derives its
// own from cfg, so that a cell replayed from outside sees the same input.
func sweepTrace(cfg experiment.SweepConfig) (*workload.Trace, float64, float64, error) {
	wl, err := cfg.Workload.WithIntensity(cfg.Intensity)
	if err != nil {
		return nil, 0, 0, err
	}
	if wl, err = wl.Scaled(cfg.Scale); err != nil {
		return nil, 0, 0, err
	}
	wl.PhaseSeconds *= cfg.Scale
	tr, secs, err := generate(wl)
	if err != nil {
		return nil, 0, 0, err
	}
	epoch := float64(wl.NumRequests) * wl.MeanInterarrival / float64(cfg.EpochsPerTrace)
	return tr, epoch, secs, nil
}

// checkServed verifies that an array run without faults completed every
// request of its trace.
func checkServed(r *array.Result, tr *workload.Trace) error {
	if r.Requests != len(tr.Requests) || r.LostRequests != 0 {
		return fmt.Errorf("%s served %d of %d requests, lost %d",
			r.PolicyName, r.Requests, len(tr.Requests), r.LostRequests)
	}
	return nil
}

// arrayLayers adds the des, array and policy figures of array.Run calls:
// bare is the untraced cost of running results, timedWall the wall time
// of the same runs with every policy hook timed into h.
func arrayLayers(s series, bare cost, timedWall float64, h *hookTimes, results ...*array.Result) {
	var requests, bg, migrations float64
	var events uint64
	for _, r := range results {
		requests += float64(r.Requests)
		events += r.EventsFired
		bg += float64(r.BackgroundOps)
		migrations += float64(r.Migrations)
	}
	s.add("des.events", float64(events))
	s.add("des.events_per_request", ratio(float64(events), requests))
	s.add("des.host_ns_per_event", ratio(bare.wall*1e9, float64(events)))
	s.add("array.self_ns_per_request", ratio(timedWall*1e9-h.totalNs(), requests))
	s.add("array.mallocs_per_request", ratio(float64(bare.mallocs), requests))
	s.add("array.background_ops", bg)
	s.add("array.migrations", migrations)
	policyLayers(s, h, timedWall)
}

// policyLayers adds the per-hook figures of h over a section of wall
// seconds.
func policyLayers(s series, h *hookTimes, wall float64) {
	s.add("policy.epoch_calls", float64(h.epoch.calls))
	s.add("policy.epoch_us", h.epoch.meanNs()/1e3)
	s.add("policy.epoch_frac", ratio(h.epoch.totalNs()/1e9, wall))
	s.add("policy.target_ns", h.target.meanNs())
	s.add("policy.complete_ns", h.complete.meanNs())
	s.add("policy.idle_ns", h.idle.meanNs())
	s.add("policy.failure_hook_us", h.failure.meanNs()/1e3)
	s.add("policy.self_frac", ratio(h.totalNs()/1e9, wall))
}
