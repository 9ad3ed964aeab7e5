package controlplane

import (
	"testing"
	"time"

	"sol/internal/faults"
	"sol/internal/fleet"
	"sol/internal/testutil"
)

// TestCampaignSoakAllocs pins the campaign's per-epoch soak path at
// zero allocations in steady state: every shard epoch of every soak
// calls stepped (the shard's stepped-cell set) and onEpoch (the cohort
// health poll, cohortHealthOver) on the shard's own goroutine, so one
// allocation there is one per shard per epoch for the whole campaign.
// The lifecycle case crashes and darkens part of the cohort with no
// transition inside the soak window, so the down-node filter, the
// attendance counts and the per-node fault queries all run.
func TestCampaignSoakAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		plan faults.NodePlan
	}{
		{"no lifecycle", nil},
		{"lifecycle", testutil.Lifecycle{
			2:  {testutil.Down(0)},
			8:  {testutil.Dark(0), testutil.Up(time.Hour)},
			9:  {testutil.Dark(0), testutil.Up(time.Hour)},
			10: {testutil.Down(0), testutil.Down(time.Hour)},
		}},
	} {
		cfg, err := NewScenario(ScenarioSpec{
			Scenario: ScenarioHealthy,
			Nodes:    12,
			Duration: time.Minute,
			Kinds:    []string{"harvest"},
			Waves:    []float64{1}, // the whole fleet is the cohort
			Seed:     1,
			Workers:  1,
			Shards:   2,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Fleet.Lifecycle = tc.plan
		co, err := fleet.NewCoordinator(cfg.Fleet)
		if err != nil {
			t.Fatal(err)
		}
		defer co.StopAll()
		st, err := newCampaign(cfg.Campaign, co, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.convertNextWave(0); err != nil {
			t.Fatal(err)
		}
		co.StepFor(cfg.Interval)
		st.spanFrom, st.spanUntil = co.Elapsed(), co.Elapsed()+cfg.Interval
		soak := func() {
			for sh := range st.shards {
				st.stepped(sh)
				st.onEpoch(sh, 1, st.spanUntil, cfg.Interval)
			}
		}
		soak() // sizes the deadline map and the scratch buffers
		if allocs := testing.AllocsPerRun(100, soak); allocs != 0 {
			t.Fatalf("%s: soak epoch allocates %.1f times, want 0", tc.name, allocs)
		}
		var h CohortHealth
		for sh := range st.shards {
			h.add(st.shards[sh].health)
		}
		if h.NodesReporting == 0 || h.Agents == 0 {
			t.Fatalf("%s: nothing was polled: %+v", tc.name, h)
		}
		if tc.plan != nil && (h.NodesDown == 0 || h.NodesDark == 0) {
			t.Fatalf("%s: the plan downed or darkened no cohort node: %+v", tc.name, h)
		}
	}
}
