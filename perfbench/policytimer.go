package main

import (
	"math"
	"sync"
	"time"

	"repro/internal/array"
)

// hookStat is one policy hook's calls and the host time of those timed.
type hookStat struct {
	calls int   // every call
	top   int   // calls not nested inside another hook
	timed int   // top-level calls timed
	ns    int64 // host time of the timed calls
}

// meanNs is the mean host time of one top-level call, less what the clock
// reads around it cost.
func (s hookStat) meanNs() float64 {
	if s.timed == 0 {
		return 0
	}
	return math.Max(0, float64(s.ns)/float64(s.timed)-clockNs())
}

// clockNs is what an empty timed section measures: the cost of the clock
// reads themselves, which a cheap hook would otherwise mostly consist of.
// It is the fastest of five batches, so that a descheduled batch does not
// inflate it.
var clockNs = sync.OnceValue(func() float64 {
	const n = 1 << 16
	best := math.Inf(1)
	for r := 0; r < 5; r++ {
		var sum time.Duration
		for i := 0; i < n; i++ {
			t0 := time.Now()
			sum += time.Since(t0)
		}
		best = math.Min(best, float64(sum)/n)
	}
	return best
})

// totalNs estimates the host time of every top-level call.
func (s hookStat) totalNs() float64 { return s.meanNs() * float64(s.top) }

// perRequest hooks run once or twice per simulated request; timing each
// would double the cost of a cheap policy, so one call in perRequest is
// timed and the rest are counted. Every other hook is timed on each call.
const perRequest = 16

// hookTimes accumulates the host time the array spends inside policy
// hooks. Hook time includes the Context calls a policy makes back into the
// array. A hook entered while another is running is counted but not timed,
// so nested calls are not charged twice.
type hookTimes struct {
	depth int

	init, target, complete, epoch, idle, failure, save, stripe hookStat
}

func (h *hookTimes) enter(s *hookStat, every int) (time.Time, bool) {
	h.depth++
	s.calls++
	if h.depth > 1 {
		return time.Time{}, false
	}
	s.top++
	if (s.top-1)%every != 0 {
		return time.Time{}, false
	}
	return time.Now(), true
}

func (h *hookTimes) leave(s *hookStat, t0 time.Time, timed bool) {
	h.depth--
	if timed {
		s.timed++
		s.ns += int64(time.Since(t0))
	}
}

// totalNs estimates the host time spent inside any hook.
func (h *hookTimes) totalNs() float64 {
	var n float64
	for _, s := range []hookStat{h.init, h.target, h.complete, h.epoch, h.idle, h.failure, h.save, h.stripe} {
		n += s.totalNs()
	}
	return n
}

// timedPolicy forwards every array.Policy hook to p and times it. It only
// observes: results with and without it are identical.
type timedPolicy struct {
	p array.Policy
	h *hookTimes
}

func (w *timedPolicy) Name() string { return w.p.Name() }

func (w *timedPolicy) Init(ctx *array.Context) error {
	t0, on := w.h.enter(&w.h.init, 1)
	err := w.p.Init(ctx)
	w.h.leave(&w.h.init, t0, on)
	return err
}

func (w *timedPolicy) TargetDisk(ctx *array.Context, fileID int) int {
	t0, on := w.h.enter(&w.h.target, perRequest)
	d := w.p.TargetDisk(ctx, fileID)
	w.h.leave(&w.h.target, t0, on)
	return d
}

func (w *timedPolicy) OnRequestComplete(ctx *array.Context, fileID, disk int) {
	t0, on := w.h.enter(&w.h.complete, perRequest)
	w.p.OnRequestComplete(ctx, fileID, disk)
	w.h.leave(&w.h.complete, t0, on)
}

func (w *timedPolicy) OnEpoch(ctx *array.Context) {
	t0, on := w.h.enter(&w.h.epoch, 1)
	w.p.OnEpoch(ctx)
	w.h.leave(&w.h.epoch, t0, on)
}

func (w *timedPolicy) OnIdleTimeout(ctx *array.Context, disk int) {
	t0, on := w.h.enter(&w.h.idle, 1)
	w.p.OnIdleTimeout(ctx, disk)
	w.h.leave(&w.h.idle, t0, on)
}

// The optional interfaces are forwarded by separate method sets, combined
// in wrapPolicy so that the wrapper implements exactly the ones the
// wrapped policy does: the array type-asserts for each, and a wrapper that
// claimed one the policy lacks (or hid one it has) would change results.

type failureHooks struct {
	p array.FailureAwarePolicy
	h *hookTimes
}

func (f failureHooks) OnDiskFailure(ctx *array.Context, disk int) {
	t0, on := f.h.enter(&f.h.failure, 1)
	f.p.OnDiskFailure(ctx, disk)
	f.h.leave(&f.h.failure, t0, on)
}

func (f failureHooks) OnDiskRepair(ctx *array.Context, disk int) {
	t0, on := f.h.enter(&f.h.failure, 1)
	f.p.OnDiskRepair(ctx, disk)
	f.h.leave(&f.h.failure, t0, on)
}

type checkpointHooks struct {
	p array.CheckpointablePolicy
	h *hookTimes
}

func (c checkpointHooks) SaveState() ([]byte, error) {
	t0, on := c.h.enter(&c.h.save, 1)
	b, err := c.p.SaveState()
	c.h.leave(&c.h.save, t0, on)
	return b, err
}

func (c checkpointHooks) LoadState(data []byte) error { return c.p.LoadState(data) }

type stripeHooks struct {
	p array.StripePolicy
	h *hookTimes
}

func (s stripeHooks) StripeTargets(ctx *array.Context, fileID int) []int {
	t0, on := s.h.enter(&s.h.stripe, perRequest)
	d := s.p.StripeTargets(ctx, fileID)
	s.h.leave(&s.h.stripe, t0, on)
	return d
}

// wrapPolicy returns p with every hook timed into h.
func wrapPolicy(p array.Policy, h *hookTimes) array.Policy {
	base := &timedPolicy{p: p, h: h}
	fp, isF := p.(array.FailureAwarePolicy)
	cp, isC := p.(array.CheckpointablePolicy)
	sp, isS := p.(array.StripePolicy)
	f := failureHooks{fp, h}
	c := checkpointHooks{cp, h}
	s := stripeHooks{sp, h}
	switch {
	case isF && isC && isS:
		return struct {
			*timedPolicy
			failureHooks
			checkpointHooks
			stripeHooks
		}{base, f, c, s}
	case isF && isC:
		return struct {
			*timedPolicy
			failureHooks
			checkpointHooks
		}{base, f, c}
	case isF && isS:
		return struct {
			*timedPolicy
			failureHooks
			stripeHooks
		}{base, f, s}
	case isC && isS:
		return struct {
			*timedPolicy
			checkpointHooks
			stripeHooks
		}{base, c, s}
	case isF:
		return struct {
			*timedPolicy
			failureHooks
		}{base, f}
	case isC:
		return struct {
			*timedPolicy
			checkpointHooks
		}{base, c}
	case isS:
		return struct {
			*timedPolicy
			stripeHooks
		}{base, s}
	default:
		return base
	}
}
