package main

import (
	"testing"

	"repro/internal/array"
	"repro/internal/experiment"
	"repro/internal/workload"
)

// TestWrapPolicyForwardsExactlyTheOptionalInterfaces checks, for every
// policy kind, that the timing wrapper implements an optional interface
// exactly when the wrapped policy does, that a wrapped run gives the
// bare run's result, and that the hooks were counted.
func TestWrapPolicyForwardsExactlyTheOptionalInterfaces(t *testing.T) {
	g := workload.DefaultGenConfig()
	g.NumRequests = 3000
	g.MeanInterarrival /= experiment.LightIntensity
	tr, err := workload.Generate(g)
	if err != nil {
		t.Fatal(err)
	}
	epoch := float64(g.NumRequests) * g.MeanInterarrival / 6

	kinds := experiment.AllPolicyKinds()
	if len(kinds) != 7 {
		t.Fatalf("%d policy kinds, want 7", len(kinds))
	}
	for _, kind := range kinds {
		t.Run(string(kind), func(t *testing.T) {
			bareP, err := experiment.NewPolicy(kind)
			if err != nil {
				t.Fatal(err)
			}
			var h hookTimes
			wrapped := wrapPolicy(mustPolicy(t, kind), &h)

			for _, iface := range []struct {
				name string
				has  func(array.Policy) bool
			}{
				{"FailureAwarePolicy", func(p array.Policy) bool { _, ok := p.(array.FailureAwarePolicy); return ok }},
				{"CheckpointablePolicy", func(p array.Policy) bool { _, ok := p.(array.CheckpointablePolicy); return ok }},
				{"StripePolicy", func(p array.Policy) bool { _, ok := p.(array.StripePolicy); return ok }},
			} {
				if got, want := iface.has(wrapped), iface.has(bareP); got != want {
					t.Errorf("wrapper implements %s = %v, policy = %v", iface.name, got, want)
				}
			}
			if wrapped.Name() != bareP.Name() {
				t.Errorf("wrapper name %q, policy %q", wrapped.Name(), bareP.Name())
			}

			cfg := array.Config{Disks: 6, Trace: tr, EpochSeconds: epoch, Policy: bareP}
			bare, err := array.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Policy = wrapped
			timed, err := array.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if a, b := arrayDigest(bare), arrayDigest(timed); a != b {
				t.Errorf("wrapped run digest %s, bare %s", b, a)
			}
			if h.init.calls != 1 || h.complete.calls != timed.Requests || h.epoch.calls != timed.Epochs {
				t.Errorf("hook calls init=%d complete=%d epoch=%d, want 1, %d, %d",
					h.init.calls, h.complete.calls, h.epoch.calls, timed.Requests, timed.Epochs)
			}
			if h.target.calls+h.stripe.calls == 0 || h.totalNs() <= 0 {
				t.Errorf("no request hooks timed: %+v", h)
			}
		})
	}
}

func mustPolicy(t *testing.T, kind experiment.PolicyKind) array.Policy {
	t.Helper()
	p, err := experiment.NewPolicy(kind)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestWrappedPolicyResumes checks that a timed READ policy checkpoints and
// resumes like the bare one: the resumed run equals the uninterrupted run.
func TestWrappedPolicyResumes(t *testing.T) {
	inst, _, err := setupFaultsCkpt(defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	f := inst.(*faultsCkpt)
	var h hookTimes
	timed := func() array.Policy { return wrapPolicy(newREAD(), &h) }
	_, _, o, err := f.runAndResume(timed)
	if err != nil {
		t.Fatal(err)
	}
	if o.failed != 0 {
		t.Fatalf("%d of %d units failed", o.failed, o.units)
	}
	if h.save.calls == 0 {
		t.Error("SaveState was never called through the wrapper")
	}
}

// Stand-ins for the optional method sets, combined below into policies
// with every subset of the three optional interfaces.
type fakePolicy struct{}

func (fakePolicy) Name() string                               { return "fake" }
func (fakePolicy) Init(*array.Context) error                  { return nil }
func (fakePolicy) TargetDisk(*array.Context, int) int         { return 0 }
func (fakePolicy) OnRequestComplete(*array.Context, int, int) {}
func (fakePolicy) OnEpoch(*array.Context)                     {}
func (fakePolicy) OnIdleTimeout(*array.Context, int)          {}

type fakeFailure struct{}

func (fakeFailure) OnDiskFailure(*array.Context, int) {}
func (fakeFailure) OnDiskRepair(*array.Context, int)  {}

type fakeCheckpoint struct{}

func (fakeCheckpoint) SaveState() ([]byte, error) { return nil, nil }
func (fakeCheckpoint) LoadState([]byte) error     { return nil }

type fakeStripe struct{}

func (fakeStripe) StripeTargets(*array.Context, int) []int { return nil }

// TestWrapPolicyEveryInterfaceSubset covers the subsets no policy kind
// happens to have.
func TestWrapPolicyEveryInterfaceSubset(t *testing.T) {
	policies := []array.Policy{
		fakePolicy{},
		struct {
			fakePolicy
			fakeFailure
		}{},
		struct {
			fakePolicy
			fakeCheckpoint
		}{},
		struct {
			fakePolicy
			fakeStripe
		}{},
		struct {
			fakePolicy
			fakeFailure
			fakeCheckpoint
		}{},
		struct {
			fakePolicy
			fakeFailure
			fakeStripe
		}{},
		struct {
			fakePolicy
			fakeCheckpoint
			fakeStripe
		}{},
		struct {
			fakePolicy
			fakeFailure
			fakeCheckpoint
			fakeStripe
		}{},
	}
	sig := func(p array.Policy) [3]bool {
		_, f := p.(array.FailureAwarePolicy)
		_, c := p.(array.CheckpointablePolicy)
		_, s := p.(array.StripePolicy)
		return [3]bool{f, c, s}
	}
	seen := map[[3]bool]bool{}
	for _, p := range policies {
		want := sig(p)
		seen[want] = true
		if got := sig(wrapPolicy(p, &hookTimes{})); got != want {
			t.Errorf("policy implements %v, wrapper %v", want, got)
		}
	}
	if len(seen) != 8 {
		t.Fatalf("covered %d of 8 interface subsets", len(seen))
	}
}
