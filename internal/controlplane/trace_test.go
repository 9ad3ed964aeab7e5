package controlplane

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"sol/internal/obs"
	"sol/internal/testutil"
)

// tracedCrashConfig builds the traced campaign fixture: a crash-storm
// scenario with the flight recorder on. Trace is set after NewScenario
// on purpose — it is observation, not state, and must not enter the
// scenario's identity (or the journal fingerprint).
func tracedCrashConfig(t *testing.T, scenario string, shards, workers int) Config {
	t.Helper()
	sp := crashSpec(scenario, shards)
	sp.Workers = workers
	cfg, err := NewScenario(sp)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Fleet.Trace = true
	return cfg
}

// campaignTraceBytes is the byte-identity surface of a campaign run's
// flight-recorder trace.
func campaignTraceBytes(t *testing.T, rep *Report) []byte {
	t.Helper()
	if rep.Fleet == nil || rep.Fleet.Trace == nil {
		t.Fatal("traced campaign run recorded no trace")
	}
	b, err := json.Marshal(rep.Fleet.Trace.Deterministic())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// decisionKinds filters a track down to campaign decision events,
// leaving deploy defer/retry events aside.
func decisionKinds(evs []obs.Event) []obs.Event {
	var out []obs.Event
	for _, ev := range evs {
		switch ev.Kind {
		case obs.EvConvert, obs.EvPass, obs.EvFail, obs.EvRollback,
			obs.EvComplete, obs.EvAbstain, obs.EvHalt:
			out = append(out, ev)
		}
	}
	return out
}

// TestTraceDecisionsMatchWaveTrace: the conductor track of the flight
// recorder is the wave trace, re-expressed — same decisions, same
// order, same sim-times — on one shard and several.
func TestTraceDecisionsMatchWaveTrace(t *testing.T) {
	t.Parallel()
	for _, shards := range []int{0, 2} {
		cfg := tracedCrashConfig(t, ScenarioCrashStormBad, shards, 2)
		rep, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Trace) == 0 {
			t.Fatalf("shards=%d: campaign produced no wave trace", shards)
		}
		got := decisionKinds(rep.Fleet.Trace.Track(obs.ConductorTrack))
		if len(got) != len(rep.Trace) {
			t.Fatalf("shards=%d: conductor track has %d decisions, wave trace has %d",
				shards, len(got), len(rep.Trace))
		}
		for i, ev := range rep.Trace {
			want := obs.Event{
				Kind:  actionEvent(ev.Action),
				Track: obs.ConductorTrack,
				At:    int64(ev.At),
				Node:  -1,
				Wave:  ev.Wave,
				Epoch: ev.Epoch,
				Arg:   int64(ev.Converted),
			}
			g := got[i]
			g.Wall = 0
			if g != want {
				t.Fatalf("shards=%d: decision %d = %+v, want %+v", shards, i, g, want)
			}
		}
		// The fixture must exercise the rollback arc, or the mapping
		// test is weaker than it looks.
		if rollbacks := len(rep.Fleet.Trace.Kind(obs.EvRollback)); rollbacks == 0 {
			t.Fatalf("shards=%d: crash-storm-bad traced no rollback decision", shards)
		}
	}
}

// TestCampaignTraceDeterminism: campaign-level traces hold the same
// byte-identity contract as raw fleet traces — identical across runs
// and worker widths, on one shard and several.
func TestCampaignTraceDeterminism(t *testing.T) {
	t.Parallel()
	for _, shards := range []int{0, 2} {
		rep, err := Run(tracedCrashConfig(t, ScenarioCrashStorm, shards, 1))
		if err != nil {
			t.Fatal(err)
		}
		base := campaignTraceBytes(t, rep)
		for _, workers := range []int{1, 4} {
			again, err := Run(tracedCrashConfig(t, ScenarioCrashStorm, shards, workers))
			if err != nil {
				t.Fatal(err)
			}
			if got := campaignTraceBytes(t, again); string(got) != string(base) {
				t.Fatalf("shards=%d workers=%d: deterministic trace bytes diverged", shards, workers)
			}
		}
	}
}

// TestResumeTraceIdentity: a campaign resumed from any journal prefix
// produces a flight-recorder trace whose deterministic bytes are
// identical to the uninterrupted run's — replayed decisions re-enter
// the recorder through the same emit path, and the re-simulated spans
// land on the same grid. The resume runs on a different worker width,
// which must not matter; the traced fingerprint is the untraced one,
// because -trace is diagnostics, not state.
func TestResumeTraceIdentity(t *testing.T) {
	t.Parallel()
	cfg := tracedCrashConfig(t, ScenarioCrashStorm, 2, 1)
	full := filepath.Join(t.TempDir(), "full.journal")
	j := createTestJournal(t, full, &cfg, "fp-trace")
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	wantTrace := campaignTraceBytes(t, want)
	entries := j.Entries()
	if entries == 0 {
		t.Fatal("uninterrupted run journaled nothing")
	}
	wantBytes, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}

	for _, k := range []int{0, entries / 2, entries} {
		cfg2 := tracedCrashConfig(t, ScenarioCrashStorm, 2, 4)
		prefix := journalPrefix(t, full, k)
		got, err := Resume(cfg2, prefix, "fp-trace")
		if err != nil {
			t.Fatalf("resume at entry %d: %v", k, err)
		}
		if gotTrace := campaignTraceBytes(t, got); string(gotTrace) != string(wantTrace) {
			t.Fatalf("resume at entry %d: deterministic trace bytes diverge from uninterrupted", k)
		}
		// The rendered reports match once the traces (whose heap: line
		// carries wall-side measured values) are set aside.
		got.Fleet.Trace, want.Fleet.Trace = nil, nil
		if got.String() != want.String() {
			t.Fatalf("resume at entry %d: report diverged", k)
		}
		gotBytes, err := os.ReadFile(prefix)
		if err != nil {
			t.Fatal(err)
		}
		if string(gotBytes) != string(wantBytes) {
			t.Fatalf("resume at entry %d: journal bytes diverge", k)
		}
	}
}

// TestDeployRetryTraced: when late deploys are enabled and a node is
// down across a conversion barrier, the conductor track carries a
// deploy defer event at the barrier and a retry event when the
// recovered node gets its deploy, with the node identified. (The
// crash-storm lifecycle is swapped for a script that downs every node
// at t=0 and restarts it at 3 s: permanent crashes defer but never
// recover, so only a restart exercises the retry arc — and the canary
// converts at epoch 0, before any quorum gate can stall the wave plan
// waiting for the downed nodes to return.)
func TestDeployRetryTraced(t *testing.T) {
	t.Parallel()
	for _, shards := range []int{0, 2} {
		cfg := tracedCrashConfig(t, ScenarioCrashStorm, shards, 2)
		// The whole fleet is down across the canary conversion at
		// epoch 0 and back up before the retry due at epoch 1 (5 s).
		down := make(testutil.Lifecycle, cfg.Fleet.Nodes)
		for i := range down {
			down[i] = []testutil.Transition{testutil.Down(0), testutil.Up(3 * time.Second)}
		}
		cfg.Fleet.Lifecycle = down
		rep, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defers := rep.Fleet.Trace.Kind(obs.EvDeployDefer)
		retries := rep.Fleet.Trace.Kind(obs.EvDeployRetry)
		if len(defers) == 0 || len(retries) == 0 {
			t.Fatalf("shards=%d: crash-storm traced %d defers / %d retries, want both > 0",
				shards, len(defers), len(retries))
		}
		for _, ev := range append(defers, retries...) {
			if ev.Track != obs.ConductorTrack || ev.Node < 0 {
				t.Fatalf("shards=%d: deploy event off the conductor track or anonymous: %+v", shards, ev)
			}
		}
	}
}
