package experiment

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/runstore"
)

// FleetManifestConfig is the digested configuration block of one fleet sweep
// condition. Execution knobs (Parallelism, CellAttempts, RetryBaseDelay,
// Progress, Track, TraceDecisions) are deliberately excluded: they never
// change results.
type FleetManifestConfig struct {
	ArrayCounts       []int                   `json:"array_counts"`
	Routings          []cluster.RoutingPolicy `json:"routings"`
	Policies          []PolicyKind            `json:"policies"`
	Replicas          int                     `json:"replicas"`
	Racks             int                     `json:"racks"`
	EnclosuresPerRack int                     `json:"enclosures_per_rack"`
	Disks             int                     `json:"disks"`
	Workload          map[string]any          `json:"workload"`
	Scale             float64                 `json:"scale"`
	Intensity         float64                 `json:"intensity"`
	EpochSeconds      float64                 `json:"epoch_seconds,omitempty"`
	EpochsPerTrace    int                     `json:"epochs_per_trace,omitempty"`

	DeadlineSeconds      float64 `json:"deadline_seconds,omitempty"`
	MaxAttempts          int     `json:"max_attempts,omitempty"`
	RetryBaseSeconds     float64 `json:"retry_base_seconds,omitempty"`
	RetryCapSeconds      float64 `json:"retry_cap_seconds,omitempty"`
	RetryJitterFrac      float64 `json:"retry_jitter_frac,omitempty"`
	HedgeAfterP99Mult    float64 `json:"hedge_after_p99_mult,omitempty"`
	HedgeFallbackSeconds float64 `json:"hedge_fallback_seconds,omitempty"`
	MaxBacklog           int     `json:"max_backlog,omitempty"`
	Seed                 int64   `json:"seed,omitempty"`

	Shocks     map[string]any `json:"shocks,omitempty"`
	Faults     map[string]any `json:"faults,omitempty"`
	Spares     int            `json:"spares,omitempty"`
	StallLimit uint64         `json:"stall_limit,omitempty"`
}

// FleetManifest condenses one finished fleet sweep condition into a runstore
// manifest: the digested configuration, an aggregate summary with the fleet
// resilience counters, and every cell's headline metrics flattened into
// Summary.Extra under "cell.fleet.<policy>.<routing>.<arrays>.<metric>" keys,
// so arrayreport diff compares fleets cell by cell.
func FleetManifest(name string, cfg FleetSweepConfig, res *FleetSweepResult) (*runstore.Manifest, error) {
	m, err := newFleetManifest(name, cfg)
	if err != nil {
		return nil, err
	}
	summarizeCells(m, res.Cells, cfg.Faults != nil && cfg.Faults.Enabled)
	return m, nil
}

func (c FleetCell) outcome() (CellStatus, int, *runstore.PerfSample) {
	return c.Status, c.Attempts, c.Perf
}

func (c FleetCell) summary(faultsOn bool, put func(string, float64)) (runstore.Summary, bool) {
	if c.Status == CellFailed || c.Result == nil {
		return runstore.Summary{}, false
	}
	cs := FleetSummary(c.Result, faultsOn)
	put("energy_j", cs.EnergyJ)
	put("worst_afr_pct", cs.ArrayAFRPct)
	put("mean_response_s", cs.MeanResponseS)
	put("p99_response_s", cs.P99ResponseS)
	put("events_fired", cs.EventsFired)
	put("served", cs.FleetServed)
	put("retries", cs.FleetRetries)
	put("hedges", cs.FleetHedges)
	put("hedge_wins", cs.FleetHedgeWins)
	put("failovers", cs.FleetFailovers)
	put("timeouts", cs.FleetTimeouts)
	put("deferred", cs.FleetDeferred)
	put("shed", cs.FleetShed)
	put("failed_requests", cs.FleetFailedRequests)
	put("shocks", cs.FleetShocks)
	put("lost_requests", cs.FleetLostRequests)
	if faultsOn {
		put("disk_failures", cs.DiskFailures)
		put("data_loss_events", cs.DataLossEvents)
	}
	return cs, true
}

// newFleetManifest builds the manifest shell — digested config, seed, axes —
// without the summary block, shared by FleetManifest and FleetManifestID.
func newFleetManifest(name string, cfg FleetSweepConfig) (*runstore.Manifest, error) {
	cfg.setDefaults()
	mc := FleetManifestConfig{
		ArrayCounts:          cfg.ArrayCounts,
		Routings:             cfg.Routings,
		Policies:             cfg.Policies,
		Replicas:             cfg.Replicas,
		Racks:                cfg.Racks,
		EnclosuresPerRack:    cfg.EnclosuresPerRack,
		Disks:                cfg.Disks,
		Workload:             asMap(cfg.Workload),
		Scale:                cfg.Scale,
		Intensity:            cfg.Intensity,
		EpochSeconds:         cfg.EpochSeconds,
		EpochsPerTrace:       cfg.EpochsPerTrace,
		DeadlineSeconds:      cfg.DeadlineSeconds,
		MaxAttempts:          cfg.MaxAttempts,
		RetryBaseSeconds:     cfg.RetryBaseSeconds,
		RetryCapSeconds:      cfg.RetryCapSeconds,
		RetryJitterFrac:      cfg.RetryJitterFrac,
		HedgeAfterP99Mult:    cfg.HedgeAfterP99Mult,
		HedgeFallbackSeconds: cfg.HedgeFallbackSeconds,
		MaxBacklog:           cfg.MaxBacklog,
		Seed:                 cfg.Seed,
		Spares:               cfg.Spares,
		StallLimit:           cfg.StallLimit,
	}
	if cfg.Shocks.Active() {
		mc.Shocks = asMap(cfg.Shocks)
	}
	if cfg.Faults != nil {
		mc.Faults = asMap(*cfg.Faults)
	}
	return newManifest(name, mc, cfg.Workload.Seed, cfg.Policies, fmt.Sprintf("fleet scale %g intensity %g", cfg.Scale, cfg.Intensity))
}

// FleetManifestID computes the run-store ID a fleet sweep condition would be
// recorded under, without running it; the resumable driver uses it to skip
// already-recorded conditions.
func FleetManifestID(name string, cfg FleetSweepConfig) (string, error) {
	return manifestID(newFleetManifest(name, cfg))
}
