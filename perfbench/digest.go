package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"strconv"

	"repro/internal/array"
	"repro/internal/cluster"
	"repro/internal/experiment"
)

// defaultSeed is the seed whose output digests are committed.
const defaultSeed = 1

// expectedJSON maps each workload to the digest of its simulated
// statistics at defaultSeed. Update it only for a change that is meant to
// alter simulated results: run each workload with --seed 1 and copy the
// printed digest.
//
//go:embed expected.json
var expectedJSON []byte

func expectedDigests() (map[string]string, error) {
	var m map[string]string
	if err := json.Unmarshal(expectedJSON, &m); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return m, nil
}

// digest hashes simulated statistics field by field, in a fixed order and
// with every float in its shortest exact form.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) f(name string, v float64) {
	fmt.Fprintf(d.h, "%s=%s\n", name, strconv.FormatFloat(v, 'g', -1, 64))
}

func (d *digest) i(name string, v int) { fmt.Fprintf(d.h, "%s=%d\n", name, v) }

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }

// arrayStats writes one array run's statistics: energy, AFR, response
// percentiles, events, migrations, background operations and failures.
func (d *digest) arrayStats(r *array.Result) {
	d.f("energy_j", r.EnergyJ)
	d.f("afr", r.ArrayAFR)
	d.f("mean", r.MeanResponse)
	d.f("p50", r.P50Response)
	d.f("p95", r.P95Response)
	d.f("p99", r.P99Response)
	d.f("p999", r.P999Response)
	d.f("max", r.MaxResponse)
	d.i("requests", r.Requests)
	d.i("events", int(r.EventsFired))
	d.i("migrations", r.Migrations)
	d.i("background_ops", r.BackgroundOps)
	d.i("epochs", r.Epochs)
	d.i("failures", r.DiskFailures)
	d.i("repairs", r.DiskRepairs)
	d.i("lost", r.LostRequests)
	d.i("degraded", r.DegradedRequests)
	d.i("raid_losses", r.RAIDDataLossEvents)
	d.i("lse", r.LSEErrors)
	d.i("scrubs", r.Scrubs)
	d.f("rebuild_mb", r.RebuildMB)
	for _, p := range r.PerDisk {
		d.i("disk", p.ID)
		d.f("disk_energy_j", p.EnergyJ)
		d.f("disk_afr", p.AFR)
		d.i("disk_transitions", p.Transitions)
	}
}

func arrayDigest(r *array.Result) string {
	d := newDigest()
	d.arrayStats(r)
	return d.sum()
}

func sweepDigest(cells []experiment.Cell) string {
	d := newDigest()
	for _, c := range cells {
		fmt.Fprintf(d.h, "cell %s\n", c.Key())
		if c.Result != nil {
			d.arrayStats(c.Result)
		}
	}
	return d.sum()
}

// fleetDigest adds the router's served, shed, failed, hedge and retry
// counts to every member's statistics.
func fleetDigest(r *cluster.Result) string {
	d := newDigest()
	d.i("requests", r.Requests)
	d.i("served", r.Served)
	d.i("shed", r.Shed)
	d.i("failed", r.Failed)
	d.i("hedges", r.Hedges)
	d.i("hedge_wins", r.HedgeWins)
	d.i("retries", r.Retries)
	d.i("failovers", r.Failovers)
	d.i("timeouts", r.Timeouts)
	d.i("deferred", r.Deferred)
	d.i("duplicates", r.Duplicates)
	d.i("shocks", r.ShocksInjected)
	d.i("events", int(r.EventsFired))
	d.f("energy_j", r.EnergyJ)
	d.f("worst_afr", r.WorstAFR)
	d.f("p50", r.P50Response)
	d.f("p99", r.P99Response)
	d.f("p999", r.P999Response)
	for _, a := range r.PerArray {
		d.i("array", a.Array)
		d.arrayStats(a.Result)
	}
	return d.sum()
}
