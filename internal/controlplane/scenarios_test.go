package controlplane

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"
)

// TestScenarioManifests: NewScenario is a loader and nothing more.
// Sized as its embedded file is, every scenario builds the manifest a
// direct ParseManifest of the file gives — same fingerprint — and the
// same run: report and wave trace byte for byte.
func TestScenarioManifests(t *testing.T) {
	t.Parallel()
	for _, name := range Scenarios() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			data, err := scenarioFiles.ReadFile("scenarios/" + name + ".json")
			if err != nil {
				t.Fatal(err)
			}
			direct, err := ParseManifest(data)
			if err != nil {
				t.Fatal(err)
			}
			sc := ScenarioSpec{Scenario: name, Nodes: 100, Duration: time.Minute, Seed: 1}
			loaded, err := sc.manifest()
			if err != nil {
				t.Fatal(err)
			}
			want, err := direct.Fingerprint()
			if err != nil {
				t.Fatal(err)
			}
			if got, err := loaded.Fingerprint(); err != nil || got != want {
				t.Fatalf("NewScenario's manifest fingerprint %s (%v), the file's %s", got, err, want)
			}
			if testing.Short() {
				return
			}
			run := func(cfg Config, err error) (string, []string) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
				rep, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				var trace []string
				for _, ev := range rep.Trace {
					line, err := json.Marshal(ev)
					if err != nil {
						t.Fatal(err)
					}
					trace = append(trace, string(line))
				}
				return rep.String(), trace
			}
			wantRep, wantTrace := run(direct.Config())
			gotRep, gotTrace := run(NewScenario(sc))
			if gotRep != wantRep || !reflect.DeepEqual(gotTrace, wantTrace) {
				t.Fatalf("NewScenario run differs from the file's:\n%s\nvs\n%s", gotRep, wantRep)
			}
		})
	}
}
