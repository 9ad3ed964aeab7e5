package controlplane

import (
	"sync"
	"testing"
	"time"

	"sol/internal/clock"
	"sol/internal/fleet"
	"sol/internal/testutil"
)

// stormLifecycle scripts the traced crash-storm case on its 12 nodes:
// the scenario's crash (22.5 s, nodes 9 and 10), a dark window
// (12.5–27.5 s) and two down windows (7.5–12.5 s and 17.5–22.5 s), as
// instants and states, edges that change nothing included.
var stormLifecycle = testutil.Lifecycle{
	0:  {testutil.Dark(12500 * time.Millisecond), testutil.Up(27500 * time.Millisecond)},
	3:  {testutil.Down(7500 * time.Millisecond), testutil.Up(12500 * time.Millisecond), testutil.Down(17500 * time.Millisecond), testutil.Up(22500 * time.Millisecond)},
	4:  {testutil.Dark(12500 * time.Millisecond), testutil.Up(27500 * time.Millisecond)},
	5:  {testutil.Dark(12500 * time.Millisecond), testutil.Up(27500 * time.Millisecond)},
	6:  {testutil.Dark(12500 * time.Millisecond), testutil.Up(27500 * time.Millisecond)},
	7:  {testutil.Down(7500 * time.Millisecond), testutil.Up(12500 * time.Millisecond), testutil.Down(17500 * time.Millisecond), testutil.Up(22500 * time.Millisecond)},
	8:  {testutil.Down(7500 * time.Millisecond), testutil.Up(12500 * time.Millisecond), testutil.Down(17500 * time.Millisecond), testutil.Up(22500 * time.Millisecond)},
	9:  {testutil.Down(22500 * time.Millisecond)},
	10: {testutil.Dark(12500 * time.Millisecond), testutil.Down(22500 * time.Millisecond), testutil.Down(27500 * time.Millisecond)},
}

// TestShardedGateAlignmentRealClockRace mirrors the conductor's
// real-clock race smoke one level up, at the campaign engine. Each
// node's virtual clock carries a ticker that burns real wall time, so
// shard workers are genuinely mid-flight on OS threads when the fleet
// aligns at a gate boundary, and several campaigns run concurrently on
// wide worker pools. Under -race (how CI runs the suite) this checks
// the alignment's happens-before edges — shard goroutines write their
// cohort health in onEpoch, the driver reads every shard's in judge —
// and the paced wide run must still render byte-identical to the paced
// single-worker run.
//
// The traced and profiled crash-storm case is the -race evidence for
// the state each shard owns during a span: the probe's per-shard slots
// (rings and accumulators) and per-cell lifecycle stages, each node's
// dark flag and restart error (stormLifecycle crashes, darkens and
// restarts part of the fleet mid-span, on the shards' workers), and
// the campaign's per-shard stepped lists, filtered against the span
// bounds the driver writes between spans.
func TestShardedGateAlignmentRealClockRace(t *testing.T) {
	t.Parallel()
	pace := func(cfg Config) Config {
		base := cfg.Fleet.Setup
		half := cfg.Interval / 2
		cfg.Fleet.Setup = func(idx int, clk *clock.Virtual) (*fleet.Supervisor, error) {
			sup, err := base(idx, clk)
			if err == nil {
				clk.Tick(half, func() {
					time.Sleep(20 * time.Microsecond) //sollint:allow walltime real wall-clock work widens the race window at gate alignment
				})
			}
			return sup, err
		}
		return cfg
	}
	for _, tc := range []struct {
		scenario string
		// 20s = 4 epochs = 2 gate boundaries: the bad variant rolls back
		// at the first, the healthy campaign converts waves at both. The
		// crash storm strikes at 22.5s, so its horizon runs two epochs
		// past it. The full horizon adds nothing to the alignment being
		// raced here and -race makes it expensive.
		horizon  time.Duration
		observed bool
	}{
		{ScenarioHealthy, 20 * time.Second, false},
		{ScenarioBadVariant, 20 * time.Second, false},
		{ScenarioCrashStorm, 30 * time.Second, true},
	} {
		mk := func(workers int) Config {
			cfg := pace(shardedScenario(t, tc.scenario, 4, workers))
			cfg.Fleet.Duration = tc.horizon
			if tc.observed {
				cfg.Fleet.Trace, cfg.Fleet.Profile = true, true
				cfg.Fleet.Lifecycle = stormLifecycle
			}
			return cfg
		}
		// The byte-identity surface: the report without its wall-clock
		// profiles and heap samples, plus the trace's deterministic
		// projection.
		render := func(rep *Report) string {
			if !tc.observed {
				return rep.String()
			}
			trace := campaignTraceBytes(t, rep)
			tr := rep.Fleet.Trace
			rep.Fleet.Trace = nil
			s := stripProfiles(rep)
			rep.Fleet.Trace = tr
			return s + string(trace)
		}
		want, err := Run(mk(1))
		if err != nil {
			t.Fatal(err)
		}
		const runs = 2
		got := make([]*Report, runs)
		errs := make([]error, runs)
		var wg sync.WaitGroup
		for i := 0; i < runs; i++ {
			cfg := mk(8)
			wg.Add(1)
			go func(i int, cfg Config) {
				defer wg.Done()
				got[i], errs[i] = Run(cfg)
			}(i, cfg)
		}
		wg.Wait()
		for i := 0; i < runs; i++ {
			if errs[i] != nil {
				t.Fatalf("%s run %d: %v", tc.scenario, i, errs[i])
			}
			if render(got[i]) != render(want) {
				t.Fatalf("%s run %d diverged from the single-worker run:\n%s\nvs\n%s",
					tc.scenario, i, got[i], want)
			}
		}
	}
}
