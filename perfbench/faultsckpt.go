package main

import (
	"fmt"

	"repro/internal/array"
	"repro/internal/checkpoint"
	"repro/internal/experiment"
	"repro/internal/faults"
	"repro/internal/policy"
	"repro/internal/reliability"
	"repro/internal/workload"
)

// The faults-ckpt shape: one 12-disk READ array in RAID-5 with two hot
// spares and accelerated Weibull failures, latent sector errors and
// scrubbing, snapshotted into memory every ckptEvery virtual seconds and
// resumed from its middle snapshot.
const (
	faultsScale = 0.05
	ckptEvery   = 30.0
	// faultsAcceleration compresses the reliability timescale so that a
	// trace of a little over an hour sees a few failures and repairs.
	faultsAcceleration = 5e5
)

type faultsCkpt struct {
	cfg   array.Config // without Policy and Checkpoint
	trace *workload.Trace
}

func setupFaultsCkpt(seed int64) (instance, float64, error) {
	sw := experiment.DefaultSweepConfig()
	sw.Workload.Seed = seed
	sw.Scale = faultsScale
	sw.EpochsPerTrace = 24
	tr, epoch, secs, err := sweepTrace(sw)
	if err != nil {
		return nil, secs, err
	}
	fc := faults.Default()
	fc.Seed = seed
	fc.Acceleration = faultsAcceleration
	fc.LSERatePerHour = faults.DefaultLSERatePerHour
	fc.RebuildTime = &reliability.Weibull{Shape: 1, ScaleHours: 12}
	cfg := array.Config{
		Disks:        12,
		Trace:        tr,
		EpochSeconds: epoch,
		Faults:       &fc,
		Spares:       2,
		RAID:         array.RAIDConfig{Level: array.RAID5},
	}
	return &faultsCkpt{cfg: cfg, trace: tr}, secs, nil
}

func newREAD() array.Policy { return policy.NewREAD(policy.READConfig{}) }

// uninterrupted runs the array from the start, keeping a copy of every
// snapshot when every is positive.
func (f *faultsCkpt) uninterrupted(p array.Policy, every float64) (*array.Result, [][]byte, error) {
	cfg := f.cfg
	cfg.Policy = p
	var snaps [][]byte
	if every > 0 {
		cfg.Checkpoint = &array.CheckpointSpec{
			EverySimSeconds: every,
			Tool:            "perfbench",
			ConfigDigest:    "faults-ckpt",
			Sink: func(data []byte) error {
				snaps = append(snaps, append([]byte(nil), data...))
				return nil
			},
		}
	}
	res, err := array.Run(cfg)
	if err != nil {
		return nil, nil, err
	}
	if every > 0 && len(snaps) < 2 {
		return nil, nil, fmt.Errorf("only %d snapshots", len(snaps))
	}
	if got := res.Requests + res.LostRequests; got != len(f.trace.Requests) {
		return nil, nil, fmt.Errorf("served %d + lost %d of %d requests", res.Requests, res.LostRequests, len(f.trace.Requests))
	}
	return res, snaps, nil
}

// resume continues from the snapshot in the middle of snaps with a fresh
// policy p, under the same snapshot interval as the run that wrote it.
func (f *faultsCkpt) resume(p array.Policy, snaps [][]byte) (*array.Result, error) {
	env, err := checkpoint.Decode(snaps[len(snaps)/2])
	if err != nil {
		return nil, err
	}
	cfg := f.cfg
	cfg.Policy = p
	cfg.Checkpoint = &array.CheckpointSpec{
		EverySimSeconds: ckptEvery,
		Tool:            "perfbench",
		ConfigDigest:    "faults-ckpt",
		Sink:            func([]byte) error { return nil },
	}
	return array.Resume(cfg, env.State)
}

// runAndResume is one replay: the uninterrupted run, then the resume,
// whose result must equal the uninterrupted one. pol makes each policy.
func (f *faultsCkpt) runAndResume(pol func() array.Policy) (*array.Result, [][]byte, outcome, error) {
	res, snaps, err := f.uninterrupted(pol(), ckptEvery)
	if err != nil {
		return nil, nil, outcome{units: 2, failed: 2}, err
	}
	o := outcome{requests: res.Requests, units: 2, digest: arrayDigest(res)}
	if err := f.checkResume(pol(), snaps, o.digest); err != nil {
		o.failed = 1
		return res, snaps, o, err
	}
	return res, snaps, o, nil
}

// checkResume resumes from snaps and compares the result with the
// uninterrupted run's digest.
func (f *faultsCkpt) checkResume(p array.Policy, snaps [][]byte, want string) error {
	resumed, err := f.resume(p, snaps)
	if err != nil {
		return fmt.Errorf("resume: %w", err)
	}
	if d := arrayDigest(resumed); d != want {
		return fmt.Errorf("resumed digest %s, uninterrupted %s", d, want)
	}
	return nil
}

func (f *faultsCkpt) run() (outcome, error) {
	_, _, o, err := f.runAndResume(newREAD)
	return o, err
}

func (f *faultsCkpt) traced(s series) (outcome, error) {
	// Untraced: the uninterrupted run, its resume, and the same run
	// without snapshots.
	var bare *array.Result
	var snaps [][]byte
	var o outcome
	var err error
	cb, _ := measure(func() error {
		bare, snaps, err = f.uninterrupted(newREAD(), ckptEvery)
		return nil
	})
	if err != nil {
		return outcome{units: 1, failed: 1}, err
	}
	o = outcome{requests: bare.Requests, units: 2, digest: arrayDigest(bare)}
	resumeS, err := stopwatch(func() error { return f.checkResume(newREAD(), snaps, o.digest) })
	if err != nil {
		o.failed++
		return o, err
	}
	o.units++
	cn, err := measure(func() error {
		_, _, err := f.uninterrupted(newREAD(), 0)
		return err
	})
	if err != nil {
		o.failed++
		return o, err
	}

	// Traced: the same run and resume with timed policies.
	var h, hr hookTimes
	var timed *array.Result
	o.units += 2
	ct, _ := measure(func() error {
		timed, snaps, err = f.uninterrupted(wrapPolicy(newREAD(), &h), ckptEvery)
		return nil
	})
	if err == nil {
		if d := arrayDigest(timed); d != o.digest {
			err = fmt.Errorf("traced digest %s, untraced %s", d, o.digest)
		}
	}
	if err == nil {
		err = f.checkResume(wrapPolicy(newREAD(), &hr), snaps, o.digest)
	}
	if err != nil {
		o.failed++
		return o, err
	}
	encMs, decMs, mb, err := codecCost(snaps)
	if err != nil {
		o.failed++
		return o, err
	}

	arrayLayers(s, cb, ct.wall, &h, bare)
	s.add("array.resume_s", resumeS)
	s.add("checkpoint.snapshots", float64(len(snaps)))
	s.add("checkpoint.state_mb", mb/float64(len(snaps)))
	s.add("checkpoint.encode_ms_per_mb", encMs/mb)
	s.add("checkpoint.decode_ms_per_mb", decMs/mb)
	s.add("checkpoint.tick_frac", 1-cn.wall/cb.wall)
	s.add("faults.failures", float64(bare.DiskFailures))
	s.add("faults.repairs", float64(bare.DiskRepairs))
	s.add("trace.overhead_frac", ct.wall/cb.wall-1)
	return o, nil
}

// codecCost decodes and re-encodes every snapshot through the checkpoint
// package and returns the milliseconds each direction took and the
// megabytes handled.
func codecCost(snaps [][]byte) (encMs, decMs, mb float64, err error) {
	envs := make([]*checkpoint.Envelope, len(snaps))
	dec, err := stopwatch(func() (err error) {
		for i, b := range snaps {
			if envs[i], err = checkpoint.Decode(b); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, 0, 0, err
	}
	enc, err := stopwatch(func() error {
		for _, e := range envs {
			if _, err := checkpoint.Encode(e); err != nil {
				return err
			}
		}
		return nil
	})
	for _, b := range snaps {
		mb += float64(len(b)) / (1 << 20)
	}
	return enc * 1e3, dec * 1e3, mb, err
}
