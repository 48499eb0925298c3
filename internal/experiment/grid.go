package experiment

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/des"
	"repro/internal/faults"
	"repro/internal/runstore"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// SweepOptions are the execution options every sweep grid shares. None of
// them changes a cell's results, so none enters a manifest digest.
type SweepOptions struct {
	// Parallelism bounds concurrent simulations; zero means NumCPU.
	Parallelism int
	// CellAttempts bounds how many times a failed cell runs before it is
	// recorded as failed (total attempts, not extra retries). Zero or one
	// means no retry. Retries are mostly useful against transient
	// environmental failures; a deterministic simulation bug fails the same
	// way every attempt and is recorded after CellAttempts tries.
	CellAttempts int
	// RetryBaseDelay is the first retry's backoff; each further retry
	// doubles it. Zero means 500ms.
	RetryBaseDelay time.Duration
	// Progress, when non-nil, receives structured phase and per-cell
	// completion lines while the sweep runs. It is rate-limited and
	// goroutine-safe, so a large sweep logs a steady trickle rather than a
	// burst per cell.
	Progress *telemetry.Progress
	// TraceDecisions attaches a decision log to every cell, filling the
	// cells' Decisions. Tracing is observational — it never changes a
	// cell's results.
	TraceDecisions bool
	// Track, when non-nil, receives the sweep's live per-cell state for the
	// ops plane (pending/running/done/failed/retried, watchdog positions,
	// ETA). Build it with telemetry.NewSweepTracker(cfg.CellKeys(), ...).
	Track *telemetry.SweepTracker
}

func (o *SweepOptions) setDefaults() {
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.NumCPU()
	}
	if o.CellAttempts <= 0 {
		o.CellAttempts = 1
	}
	if o.RetryBaseDelay <= 0 {
		o.RetryBaseDelay = 500 * time.Millisecond
	}
}

// defaultTrace fills the zero trace parameters every sweep shares: the
// default workload, scale 0.05, the native arrival rate and 24 epochs.
func defaultTrace(wl *workload.GenConfig, scale, intensity *float64, epochsPerTrace *int) {
	if wl.NumFiles == 0 {
		*wl = workload.DefaultGenConfig()
	}
	if *scale == 0 {
		*scale = 0.05
	}
	if *intensity == 0 {
		*intensity = 1
	}
	if *epochsPerTrace <= 0 {
		*epochsPerTrace = 24
	}
}

// validateGrid checks the parameters every sweep grid shares.
func validateGrid(scale, intensity float64, policies []PolicyKind, fc *faults.Config, spares int) error {
	if scale <= 0 || scale > 1 {
		return fmt.Errorf("experiment: scale %v outside (0,1]", scale)
	}
	if intensity <= 0 {
		return fmt.Errorf("experiment: intensity %v must be positive", intensity)
	}
	for _, k := range policies {
		if _, err := NewPolicy(k); err != nil {
			return err
		}
	}
	if fc != nil {
		if err := fc.Validate(); err != nil {
			return err
		}
	}
	if spares < 0 {
		return fmt.Errorf("experiment: negative spare count %d", spares)
	}
	return nil
}

// prepareTrace derives a sweep's one shared trace from its base workload:
// it applies intensity and scale, generates the trace, and returns the
// policy epoch — epoch itself when nonzero, else the trace duration split
// into epochsPerTrace epochs.
func prepareTrace(wl workload.GenConfig, intensity, scale, epoch float64, epochsPerTrace int) (*workload.Trace, float64, error) {
	var err error
	if intensity != 1 {
		if wl, err = wl.WithIntensity(intensity); err != nil {
			return nil, 0, err
		}
	}
	if scale != 1 {
		if wl, err = wl.Scaled(scale); err != nil {
			return nil, 0, err
		}
		// Preserve the number of popularity phases across the shortened
		// trace so churn-driven behaviour is scale-invariant.
		wl.PhaseSeconds *= scale
	}
	trace, err := workload.Generate(wl)
	if err != nil {
		return nil, 0, err
	}
	if epoch == 0 {
		duration := float64(wl.NumRequests) * wl.MeanInterarrival
		epoch = duration / float64(epochsPerTrace)
	}
	return trace, epoch, nil
}

// gridCell is a sweep cell as the grid runner and the manifest aggregation
// see it: its ops-plane and manifest identity, the coordinates its progress
// and error lines name, and how it finished.
type gridCell interface {
	Key() string
	label() string
	outcome() (status CellStatus, attempts int, perf *runstore.PerfSample)
	// summary condenses a completed cell and reports its per-cell metrics
	// through put; ok is false for a failed cell.
	summary(faultsOn bool, put func(metric string, v float64)) (s runstore.Summary, ok bool)
}

// cellOutcome is how one grid cell finished. res is the zero value exactly
// when status is CellFailed.
type cellOutcome[R any] struct {
	res      R
	status   CellStatus
	attempts int
	err      string
	stall    *des.StallError
	perf     *runstore.PerfSample
	dlog     *telemetry.DecisionLog
}

// testCellHook, when non-nil, runs with the cell's key at the start of
// every cell attempt (inside the panic-recovery scope). Tests use it to make
// chosen cells panic and verify the sweep survives.
var testCellHook func(key string)

// runGrid runs every cell of one sweep grid and returns their outcomes in
// grid order. attempt runs one attempt of a cell on a fresh engine, RNG and
// telemetry; size reports a result's virtual seconds and fired events.
//
// A bounded pool of min(Parallelism, len(cells)) workers drains the cells.
// Each worker owns a cell end-to-end and stores its outcome at the cell's
// own index, so the outcomes — and every manifest built from them — are
// identical for every worker count; only the interleaving of progress lines
// varies. Cells are isolated: an attempt that returns an error or panics is
// retried up to CellAttempts times with retryDelay backoff, and a cell that
// still fails is recorded as CellFailed while the others run to completion.
// The returned error is non-nil when any cell failed.
func runGrid[C gridCell, R any](o *SweepOptions, name string, seed int64, cells []C,
	attempt func(c C, live *telemetry.Live, watch *des.Watch) (R, *telemetry.DecisionLog, error),
	size func(R) (simSeconds float64, events uint64)) ([]cellOutcome[R], error) {
	o.Progress.Phase(fmt.Sprintf("%s: run %d cells", name, len(cells)))
	outs := make([]cellOutcome[R], len(cells))
	workers := min(o.Parallelism, len(cells))
	// Memory and GC deltas of a cell are exclusively its own only when no
	// other worker shares the process.
	shared := workers > 1
	var done atomic.Int64

	// runOnce is one attempt: the one place a panic anywhere in a cell — the
	// policy, the simulator, the hook — becomes an error with the stack
	// attached, so one broken cell cannot take down the worker pool.
	runOnce := func(c C, live *telemetry.Live, watch *des.Watch) (res R, dlog *telemetry.DecisionLog, err error) {
		defer func() {
			if r := recover(); r != nil {
				var zero R
				res, dlog = zero, nil
				err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
			}
		}()
		if testCellHook != nil {
			testCellHook(c.Key())
		}
		return attempt(c, live, watch)
	}

	runCell := func(i int) {
		c, out := cells[i], &outs[i]
		key := c.Key()
		var lastErr error
		var lastWall float64
		for a := 1; a <= o.CellAttempts; a++ {
			out.attempts = a
			if a > 1 {
				time.Sleep(retryDelay(o.RetryBaseDelay, seed, i, a))
				o.Progress.Stepf("%s: retrying %s (attempt %d/%d)", name, c.label(), a, o.CellAttempts)
			}
			// Fresh per-attempt ops handles (nil when no tracker): the
			// simulation publishes its live position through them, and the
			// /progress and /healthz endpoints read them concurrently.
			live, watch := o.Track.StartCell(key)
			pc := runstore.StartPerf()
			res, dlog, err := runOnce(c, live, watch)
			if err != nil {
				lastErr = err
				lastWall = pc.Sample(0, 0, shared).WallSeconds
				out.err = fmt.Sprintf("%s: %v", c.label(), err)
				if a < o.CellAttempts {
					o.Track.CellRetrying(key, err)
				}
				continue
			}
			sim, events := size(res)
			perf := pc.Sample(sim, events, shared)
			*out = cellOutcome[R]{res: res, status: CellOK, attempts: a, perf: &perf, dlog: dlog}
			if a > 1 {
				out.status = CellRetried
			}
			o.Track.CellDone(key, perf.WallSeconds, events)
			o.Progress.Stepf("%s: cell %d/%d done (%s, %d events)", name, done.Add(1), len(cells), c.label(), events)
			return
		}
		out.status = CellFailed
		var serr *des.StallError
		if errors.As(lastErr, &serr) {
			out.stall = serr
		}
		o.Track.CellFailed(key, lastErr, lastWall)
		o.Progress.Stepf("%s: cell %d/%d FAILED (%s, %d attempts)", name, done.Add(1), len(cells), c.label(), out.attempts)
	}

	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				runCell(i)
			}
		}()
	}
	for i := range cells {
		next <- i
	}
	close(next)
	wg.Wait()

	failed, first := 0, ""
	for _, out := range outs {
		if out.status == CellFailed {
			if failed == 0 {
				first = out.err
			}
			failed++
		}
	}
	if failed > 0 {
		return outs, fmt.Errorf("experiment: %d of %d %s cells failed; first: %s", failed, len(cells), name, first)
	}
	return outs, nil
}

// retryDelay computes the backoff before a cell's attempt-th try (attempt ≥
// 2): exponential doubling from base, spread to [0.5×, 1.5×) by a pure hash
// of (seed, cell index, attempt). No RNG state exists, so the retry schedule
// is a function of the sweep configuration alone — identical on every run of
// the same sweep, including a run resumed after a crash.
func retryDelay(base time.Duration, seed int64, cell, attempt int) time.Duration {
	d := base << uint(attempt-2)
	return time.Duration(float64(d) * (0.5 + faults.Jitter01(seed, uint64(cell), uint64(attempt))))
}
