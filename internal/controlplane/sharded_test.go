package controlplane

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// shardedScenario builds a small scenario config with the given shard
// count (0 and 1 are the same one-shard run).
func shardedScenario(t *testing.T, scenario string, shards, workers int) Config {
	t.Helper()
	cfg, err := NewScenario(ScenarioSpec{
		Scenario: scenario,
		Nodes:    12,
		Duration: 50 * time.Second,
		Interval: 5 * time.Second,
		Kinds:    []string{"harvest"},
		Seed:     3,
		Workers:  workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Fleet.Shards = shards
	return cfg
}

// TestShardedMidCampaignHorizon pins the truncated-epoch edge on a
// multi-shard fleet (TestScenarioGolden pins it byte for byte on one
// shard): a horizon that ends mid-soak leaves the campaign unresolved —
// neither completed nor rolled back — with every shard's canary
// converted and the fleet run to the full, truncated horizon.
func TestShardedMidCampaignHorizon(t *testing.T) {
	t.Parallel()
	cfg := shardedScenario(t, ScenarioHealthy, 3, 0)
	// 4 waves x 2 soak epochs need 8 epochs; 12.5s gives 3 (the
	// last truncated), so the run ends mid-campaign.
	cfg.Fleet.Duration = 12500 * time.Millisecond
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed || rep.RolledBack || rep.Halted {
		t.Fatalf("run unexpectedly settled:\n%s", rep)
	}
	if last := rep.Trace[len(rep.Trace)-1]; last.Action != ActionConvert || last.Wave != 2 || last.Epoch != 2 {
		t.Fatalf("last event = %+v, want wave 2's conversion at epoch 2", last)
	}
	if rep.Converted != 3 || rep.Fleet.Duration != cfg.Fleet.Duration {
		t.Fatalf("converted %d nodes over %v, want one per shard over %v:\n%s",
			rep.Converted, rep.Fleet.Duration, cfg.Fleet.Duration, rep)
	}
}

// TestShardedDeterminism pins the determinism contract on a
// multi-shard fleet: for a fixed shard count, runs are byte-identical across
// repeats and worker widths.
func TestShardedDeterminism(t *testing.T) {
	t.Parallel()
	want, err := Run(shardedScenario(t, ScenarioBadVariant, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !want.RolledBack {
		t.Fatalf("bad-variant sharded run did not roll back:\n%s", want)
	}
	for _, workers := range []int{1, 2, 5} {
		got, err := Run(shardedScenario(t, ScenarioBadVariant, 4, workers))
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Fatalf("workers=%d: sharded run diverged:\n%s\nvs\n%s", workers, got, want)
		}
	}
}

// TestShardedPerShardCanary checks the per-shard cohort rule: every
// wave converts at least one node in every shard, so the canary wave
// of an S-shard fleet has blast radius S (one node per partition), and
// a rolled-back campaign reports exactly that as MaxConverted.
func TestShardedPerShardCanary(t *testing.T) {
	t.Parallel()
	rep, err := Run(shardedScenario(t, ScenarioBadVariant, 4, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.RolledBack || rep.FailureWave != 1 {
		t.Fatalf("bad variant not caught at the canary wave:\n%s", rep)
	}
	if rep.MaxConverted != 4 {
		t.Fatalf("canary blast radius = %d nodes, want 4 (one per shard)", rep.MaxConverted)
	}
	if rep.Converted != 0 {
		t.Fatalf("converted after rollback = %d, want 0", rep.Converted)
	}
	if !strings.Contains(rep.String(), "4 shards") {
		t.Fatalf("report does not name the shard count:\n%s", rep)
	}
}

// TestShardedNoCampaign checks a campaign-less multi-shard run: one
// free-running span to the horizon, with a fleet report identical to
// the one-shard run's (which TestScenarioGolden pins).
func TestShardedNoCampaign(t *testing.T) {
	t.Parallel()
	mk := func(shards int) Config {
		cfg := shardedScenario(t, ScenarioHealthy, shards, 0)
		cfg.Fleet.Duration = 10 * time.Second
		cfg.Campaign = nil
		return cfg
	}
	one, err := Run(mk(1))
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := Run(mk(3))
	if err != nil {
		t.Fatal(err)
	}
	if one.Shards != 1 || sharded.Shards != 3 {
		t.Fatalf("report shard counts = %d and %d, want 1 and 3", one.Shards, sharded.Shards)
	}
	if !reflect.DeepEqual(one.Fleet, sharded.Fleet) {
		t.Fatalf("no-campaign fleet report diverged across shard counts:\n%v\nvs\n%v", one.Fleet, sharded.Fleet)
	}
}
