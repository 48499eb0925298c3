package main

import (
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/array"
	"repro/internal/cluster"
	"repro/internal/experiment"
	"repro/internal/faults"
	"repro/internal/opsserver"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// The fleet-16 shape: 16 READ arrays of 8 disks behind least-loaded
// routing, every file on 2 arrays, with deadlines, retries, hedging and
// rack power shocks.
const (
	fleetArrays   = 16
	fleetDisks    = 8
	fleetRequests = 100_000
	fleetRacks    = 4
	// scrapes is how many /metrics GETs opsserver.scrape_ms is the median of.
	scrapes = 20
)

type fleet struct{ cfg cluster.Config }

func setupFleet(seed int64) (instance, float64, error) {
	g := workload.DefaultGenConfig()
	g.NumRequests = fleetRequests
	g.MeanInterarrival /= experiment.LightIntensity
	g.Seed = seed
	g.DiurnalProfile = workload.DefaultDiurnalProfile()
	duration := float64(g.NumRequests) * g.MeanInterarrival
	g.PhaseSeconds = duration / 12
	g.PhaseRotate = 0.10
	tr, secs, err := generate(g)
	if err != nil {
		return nil, secs, err
	}
	cfg := cluster.Config{
		Arrays:               fleetArrays,
		Replicas:             2,
		Topology:             cluster.Topology{Racks: fleetRacks},
		Trace:                tr,
		Proto:                array.Config{Disks: fleetDisks, EpochSeconds: duration / 24},
		Routing:              cluster.LeastLoaded,
		DeadlineSeconds:      5,
		MaxAttempts:          3,
		RetryBaseSeconds:     0.25,
		RetryCapSeconds:      30,
		RetryJitterFrac:      0.2,
		HedgeAfterP99Mult:    3,
		HedgeFallbackSeconds: 1,
		MakePolicy:           func(int) (array.Policy, error) { return experiment.NewPolicy(experiment.KindREAD) },
		Seed:                 seed,
		Shocks: faults.ShockConfig{
			Enabled:             true,
			Seed:                seed,
			MeanIntervalSeconds: 900,
			MeanOutageSeconds:   60,
		},
	}
	return &fleet{cfg}, secs, cfg.Validate()
}

// runWith runs the fleet; wrap, when non-nil, wraps every member's
// policy, and live, when non-nil, receives the router's counters.
func (f *fleet) runWith(wrap func(array.Policy) array.Policy, live *telemetry.FleetLive) (*cluster.Result, outcome, error) {
	cfg := f.cfg
	cfg.FleetLive = live
	if wrap != nil {
		cfg.MakePolicy = func(i int) (array.Policy, error) {
			p, err := f.cfg.MakePolicy(i)
			return wrap(p), err
		}
	}
	res, err := cluster.Run(cfg)
	if err != nil {
		return nil, outcome{units: 1, failed: 1}, err
	}
	o := outcome{requests: res.Served, units: 1, digest: fleetDigest(res)}
	if got := res.Served + res.Shed + res.Failed; got != res.Requests || res.Requests != len(cfg.Trace.Requests) {
		o.failed = 1
		return res, o, fmt.Errorf("served %d + shed %d + failed %d = %d, want %d requests",
			res.Served, res.Shed, res.Failed, got, len(cfg.Trace.Requests))
	}
	return res, o, nil
}

func (f *fleet) run() (outcome, error) {
	_, o, err := f.runWith(nil, nil)
	return o, err
}

func (f *fleet) traced(s series) (outcome, error) {
	var bare *cluster.Result
	var o outcome
	var err error
	cb, _ := measure(func() error {
		bare, _, err = f.runWith(nil, nil)
		return nil
	})
	if err != nil {
		return outcome{units: 1, failed: 1}, err
	}
	var h hookTimes
	live := telemetry.NewFleetLive(fleetArrays)
	ct, _ := measure(func() error {
		_, o, err = f.runWith(func(p array.Policy) array.Policy { return wrapPolicy(p, &h) }, live)
		return nil
	})
	o.units++
	if err != nil {
		return o, err
	}
	if d := fleetDigest(bare); d != o.digest {
		o.failed++
		return o, fmt.Errorf("traced digest %s, untraced %s", o.digest, d)
	}
	scrape, err := scrapeMetrics(live)
	if err != nil {
		o.failed++
		return o, fmt.Errorf("opsserver: %w", err)
	}

	// Every attempt the router sends to a member ends there as a served
	// or a lost member request.
	var attempts, bg, migrations float64
	for _, a := range bare.PerArray {
		attempts += float64(a.Requests + a.LostRequests)
		bg += float64(a.BackgroundOps)
		migrations += float64(a.Migrations)
	}
	events := float64(bare.EventsFired)
	requests := float64(bare.Requests)
	s.add("des.events", events)
	s.add("des.events_per_request", ratio(events, requests))
	s.add("des.host_ns_per_event", ratio(cb.wall*1e9, events))
	s.add("array.background_ops", bg)
	s.add("array.migrations", migrations)
	s.add("cluster.attempts", attempts)
	s.add("cluster.events_per_request", ratio(events, requests))
	s.add("cluster.ns_per_attempt", ratio(cb.wall*1e9, attempts))
	s.add("cluster.policy_frac", ratio(h.totalNs()/1e9, ct.wall))
	s.add("cluster.mallocs_per_request", ratio(float64(cb.mallocs), requests))
	s.add("opsserver.scrape_ms", scrape)
	s.add("trace.overhead_frac", ct.wall/cb.wall-1)
	policyLayers(s, &h, ct.wall)
	return o, nil
}

// scrapeMetrics serves live on a loopback ops server and returns the
// median milliseconds of a /metrics GET.
func scrapeMetrics(live *telemetry.FleetLive) (float64, error) {
	srv, err := opsserver.Start(opsserver.Options{
		Addr:  "127.0.0.1:0",
		Tool:  "perfbench",
		Run:   "fleet-16",
		Fleet: live,
	})
	if err != nil {
		return 0, err
	}
	defer srv.Close()
	srv.MarkDone()
	client := &http.Client{Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()
	url := "http://" + srv.Addr() + "/metrics"
	ms := make([]float64, 0, scrapes)
	for i := 0; i < scrapes; i++ {
		secs, err := stopwatch(func() error {
			resp, err := client.Get(url)
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("GET /metrics: %s", resp.Status)
			}
			_, err = io.Copy(io.Discard, resp.Body)
			return err
		})
		if err != nil {
			return 0, err
		}
		ms = append(ms, secs*1e3)
	}
	return median(ms), nil
}
