package controlplane

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"sol/internal/core"
	"sol/internal/fleet"
	"sol/internal/obs"
)

// profiledScenario is shardedScenario with the fleet self-profiler on.
func profiledScenario(t *testing.T, scenario string, shards, workers int) Config {
	t.Helper()
	cfg := shardedScenario(t, scenario, shards, workers)
	cfg.Fleet.Profile = true
	return cfg
}

// stripProfiles detaches every wall-clock artifact from the report —
// wave profiles and the fleet profile — and returns its rendering, the
// projection the byte-identity contracts cover.
func stripProfiles(rep *Report) string {
	wp, fp := rep.WaveProfiles, rep.Fleet.Profile
	rep.WaveProfiles, rep.Fleet.Profile = nil, nil
	s := rep.String()
	rep.WaveProfiles, rep.Fleet.Profile = wp, fp
	return s
}

// TestWaveProfiles pins the control plane's per-wave attribution on
// one shard and several: one profile per settled gate decision (riding beside
// the trace, never in it), each a delta with real span counts, the
// simulation output unchanged by profiling, and the counts identical
// across worker widths.
func TestWaveProfiles(t *testing.T) {
	t.Parallel()
	for _, shards := range []int{0, 3} {
		plain, err := Run(shardedScenario(t, ScenarioHealthy, shards, 0))
		if err != nil {
			t.Fatal(err)
		}
		if len(plain.WaveProfiles) != 0 {
			t.Fatalf("shards=%d: unprofiled run carries %d wave profiles", shards, len(plain.WaveProfiles))
		}
		rep, err := Run(profiledScenario(t, ScenarioHealthy, shards, 0))
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Completed {
			t.Fatalf("shards=%d: profiled healthy campaign did not complete:\n%s", shards, rep)
		}
		// One profile per settled gate decision: the trace events whose
		// action is a settle (convert/abstain/rollback entries are not).
		var settled []WaveEvent
		for _, ev := range rep.Trace {
			switch ev.Action {
			case ActionPass, ActionFail, ActionComplete, ActionHalt:
				settled = append(settled, ev)
			}
		}
		if len(rep.WaveProfiles) != len(settled) {
			t.Fatalf("shards=%d: %d wave profiles for %d settled trace events",
				shards, len(rep.WaveProfiles), len(settled))
		}
		for i, wp := range rep.WaveProfiles {
			ev := settled[i]
			if wp.Wave != ev.Wave || wp.Epoch != ev.Epoch {
				t.Fatalf("shards=%d: profile %d is (wave %d, epoch %d), trace says (wave %d, epoch %d)",
					shards, i, wp.Wave, wp.Epoch, ev.Wave, ev.Epoch)
			}
			if wp.Profile.Totals().Counts.Spans == 0 {
				t.Fatalf("shards=%d: wave %d profile has no spans: %+v", shards, wp.Wave, wp.Profile)
			}
		}
		if got, want := stripProfiles(rep), plain.String(); got != want {
			t.Fatalf("shards=%d: profiling changed the campaign output:\nprofiled:\n%s\nunprofiled:\n%s",
				shards, got, want)
		}

		// The deterministic projection of every wave profile is stable
		// across worker widths.
		base := waveCounts(rep)
		for _, workers := range []int{1, 5} {
			again, err := Run(profiledScenario(t, ScenarioHealthy, shards, workers))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(waveCounts(again), base) {
				t.Fatalf("shards=%d workers=%d: wave profile counts drifted:\n%+v\nvs\n%+v",
					shards, workers, waveCounts(again), base)
			}
		}
	}
}

// waveCounts projects a report's wave profiles onto their
// deterministic halves.
func waveCounts(rep *Report) []WaveProfile {
	out := make([]WaveProfile, len(rep.WaveProfiles))
	for i, wp := range rep.WaveProfiles {
		out[i] = WaveProfile{Wave: wp.Wave, Epoch: wp.Epoch, Profile: *wp.Profile.Deterministic()}
	}
	return out
}

// TestWaveProfileRenderingGolden pins the "profile wave" lines of the
// report against hand-built values, and their absence when off.
func TestWaveProfileRenderingGolden(t *testing.T) {
	t.Parallel()
	rep := &Report{
		Nodes: 4, Interval: 5 * time.Second,
		Campaign: "v2", Kinds: []string{"harvest"}, Waves: []float64{1},
		Completed: true, Converted: 4, MaxConverted: 4,
		Trace: []WaveEvent{{Wave: 1, Epoch: 2, At: 10 * time.Second, Action: ActionComplete, Converted: 4}},
		WaveProfiles: []WaveProfile{{
			Wave: 1, Epoch: 2,
			Profile: obs.Profile{
				Shards: []obs.ShardProfile{
					{Shard: 0, Counts: obs.ShardCounts{Spans: 2, Epochs: 2, SteppedAdvances: 8},
						StepNS: 2e6, AlignNS: 1e6, BarrierNS: 1e6},
				},
				ConductorAlignNS: 5e5,
			},
		}},
		Fleet: &fleet.Report{
			Nodes: 4, Agents: 4, Duration: 10 * time.Second, Events: 100,
			Kinds: map[string]*fleet.KindStats{"harvest": {Agents: 4, Stats: core.Stats{Actions: 10}}},
		},
	}
	out := rep.String()
	wantLine := "profile wave 1 (epoch 2): step 2ms free 0s align 1ms wait 1ms conduct 500µs — worst shard 0: busy 3ms, waits 25.0%"
	if !strings.Contains(out, wantLine) {
		t.Fatalf("report lacks the wave profile line %q:\n%s", wantLine, out)
	}
	rep.WaveProfiles = nil
	if strings.Contains(rep.String(), "profile wave") {
		t.Fatalf("profile-less report still renders wave profiles:\n%s", rep.String())
	}
}
