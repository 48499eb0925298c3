package main

import (
	"fmt"

	"repro/internal/array"
	"repro/internal/experiment"
	"repro/internal/workload"
)

// fig7Scale shrinks the paper's day for the Figure-7 sweep: READ, MAID and
// PDC at 6 to 16 disks, light intensity, popularity churn on.
const fig7Scale = 0.02

type fig7 struct {
	cfg   experiment.SweepConfig
	trace *workload.Trace // the trace RunSweep generates from cfg
	epoch float64
}

func setupFig7(seed int64) (instance, float64, error) {
	cfg := experiment.DefaultSweepConfig()
	cfg.Workload.Seed = seed
	cfg.Scale = fig7Scale
	cfg.EpochsPerTrace = 24
	cfg.Parallelism = 1
	tr, epoch, secs, err := sweepTrace(cfg)
	return &fig7{cfg: cfg, trace: tr, epoch: epoch}, secs, err
}

func (f *fig7) cells() int { return len(f.cfg.DiskCounts) * len(f.cfg.Policies) }

func (f *fig7) sweep() (*experiment.SweepResult, outcome, error) {
	res, err := experiment.RunSweep(f.cfg)
	if res == nil {
		return nil, outcome{units: f.cells(), failed: f.cells()}, err
	}
	o := outcome{units: len(res.Cells), digest: sweepDigest(res.Cells)}
	for _, c := range res.Cells {
		if c.Result == nil {
			o.failed++
			continue
		}
		if cerr := checkServed(c.Result, f.trace); cerr != nil {
			o.failed++
			if err == nil {
				err = fmt.Errorf("cell %s: %w", c.Key(), cerr)
			}
			continue
		}
		o.requests += c.Result.Requests
	}
	return res, o, err
}

func (f *fig7) run() (outcome, error) {
	_, o, err := f.sweep()
	return o, err
}

// replay re-runs every cell of the sweep from outside, through array.Run
// with the configuration RunSweep gives it; wrap, when non-nil, wraps
// each cell's fresh policy.
func (f *fig7) replay(wrap func(array.Policy) array.Policy) ([]experiment.Cell, error) {
	var cells []experiment.Cell
	for _, n := range f.cfg.DiskCounts {
		for _, k := range f.cfg.Policies {
			p, err := experiment.NewPolicy(k)
			if err != nil {
				return nil, err
			}
			if wrap != nil {
				p = wrap(p)
			}
			res, err := array.Run(array.Config{Disks: n, Trace: f.trace, Policy: p, EpochSeconds: f.epoch})
			if err != nil {
				return nil, fmt.Errorf("replay %s.%d: %w", k, n, err)
			}
			cells = append(cells, experiment.Cell{Disks: n, Policy: k, Result: res})
		}
	}
	return cells, nil
}

func (f *fig7) traced(s series) (outcome, error) {
	var o outcome
	var err error
	sw, _ := measure(func() error {
		_, o, err = f.sweep()
		return nil
	})
	if err != nil {
		return o, err
	}
	var bare, timed []experiment.Cell
	var h hookTimes
	cb, err := measure(func() (err error) {
		bare, err = f.replay(nil)
		return err
	})
	if err != nil {
		return outcome{units: o.units, failed: o.units}, err
	}
	ct, err := measure(func() (err error) {
		timed, err = f.replay(func(p array.Policy) array.Policy { return wrapPolicy(p, &h) })
		return err
	})
	if err != nil {
		return outcome{units: o.units, failed: o.units}, err
	}
	o.units *= 3
	for _, c := range [][]experiment.Cell{bare, timed} {
		if d := sweepDigest(c); d != o.digest {
			o.failed += len(c)
			err = fmt.Errorf("replayed cells digest %s, RunSweep %s", d, o.digest)
		}
	}
	results := make([]*array.Result, len(bare))
	for i, c := range bare {
		results[i] = c.Result
	}
	arrayLayers(s, cb, ct.wall, &h, results...)
	s.add("experiment.overhead_frac", 1-cb.wall/sw.wall)
	s.add("trace.overhead_frac", ct.wall/cb.wall-1)
	return o, err
}
