package main

import (
	"fmt"
	"math/rand"

	"repro/internal/des"
)

// The standalone kernel run drives des.Engine directly: kernelDepth events
// stay pending at all times and each fired event schedules its successor
// an exponential delay later, until kernelEvents have fired. The depth
// matches a 10-disk always-on array over the paper-calibrated day, whose
// queue holds 1.13 events on average when a request arrives (sampled
// through des.Watch): the next arrival, and the completion of the request
// in service, if any.
const (
	kernelDepth  = 2
	kernelEvents = 2_000_000
	kernelReps   = 3
)

// kernelNsPerEvent returns the median host nanoseconds per fired event
// over kernelReps runs.
func kernelNsPerEvent(seed int64) (float64, error) {
	var ns []float64
	for i := 0; i < kernelReps; i++ {
		eng := des.New()
		rng := rand.New(rand.NewSource(seed))
		budget := kernelEvents - kernelDepth
		var schedErr error
		var h des.Handler
		h = func(e *des.Engine) {
			if budget == 0 || schedErr != nil {
				return
			}
			budget--
			_, schedErr = e.AtLabeled(e.Now()+rng.ExpFloat64(), "kernel", h)
		}
		for j := 0; j < kernelDepth; j++ {
			if _, err := eng.AtLabeled(rng.ExpFloat64(), "kernel", h); err != nil {
				return 0, err
			}
		}
		wall, _ := stopwatch(func() error {
			eng.Run()
			return nil
		})
		if schedErr != nil {
			return 0, schedErr
		}
		if eng.Fired() != kernelEvents {
			return 0, fmt.Errorf("fired %d events, want %d", eng.Fired(), kernelEvents)
		}
		ns = append(ns, wall*1e9/float64(eng.Fired()))
	}
	return median(ns), nil
}
