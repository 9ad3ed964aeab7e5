package controlplane

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"sol/internal/faults"
	"sol/internal/fleet"
	"sol/internal/taxonomy"
)

// crashSpec is the shared crash-scenario shape. The fleet is fixed at
// 16 nodes regardless of -short: the assertions pin seed- and
// size-dependent outcomes (which nodes crash, which gates abstain).
func crashSpec(scenario string, shards int) ScenarioSpec {
	dur := 65 * time.Second // crash-storm completes at epoch 12 (60 s)
	if scenario == ScenarioCrashStormBad {
		dur = 30 * time.Second // rolls back at the canary gate (10 s)
	}
	return ScenarioSpec{
		Scenario: scenario,
		Nodes:    16,
		Duration: dur,
		Interval: 5 * time.Second,
		Kinds:    []string{"harvest"},
		Seed:     1,
		Shards:   shards,
	}
}

func runCrashScenario(t *testing.T, scenario string, shards int, mut func(*Config)) *Report {
	t.Helper()
	cfg, err := NewScenario(crashSpec(scenario, shards))
	if err != nil {
		t.Fatal(err)
	}
	if mut != nil {
		mut(&cfg)
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestCrashStormCompletes is the quorum gate's central promise: 20% of
// the fleet crashing mid-campaign must not get a blameless candidate
// rolled back. The gate abstains (extending the soak) while the cohort
// is below quorum, then judges on the surviving evidence; the campaign
// completes on every reachable node and reports the unreachable rest.
func TestCrashStormCompletes(t *testing.T) {
	t.Parallel()
	for _, shards := range []int{0, 2} {
		rep := runCrashScenario(t, ScenarioCrashStorm, shards, nil)
		if !rep.Completed || rep.RolledBack || rep.Halted {
			t.Fatalf("%d shards: crash-storm campaign did not complete:\n%s", shards, rep)
		}
		if rep.Failure != taxonomy.FailureNone {
			t.Fatalf("%d shards: blameless candidate blamed: %s", shards, rep.Failure)
		}
		if rep.Unconverted == 0 {
			t.Fatalf("%d shards: no unreachable nodes — the storm injected nothing:\n%s", shards, rep)
		}
		if rep.Converted+rep.Unconverted != rep.Nodes {
			t.Fatalf("%d shards: converted %d + unreachable %d != %d nodes",
				shards, rep.Converted, rep.Unconverted, rep.Nodes)
		}
		abstains := 0
		for _, ev := range rep.Trace {
			if ev.Action == ActionAbstain {
				abstains++
				if !strings.Contains(ev.Reason, "quorum not met") {
					t.Fatalf("%d shards: abstain without a quorum reason: %+v", shards, ev)
				}
				if ev.Health.NodesDown == 0 || ev.Health.NodesReporting >= ev.Health.NodesTotal {
					t.Fatalf("%d shards: abstain health shows a full cohort: %s", shards, ev.Health)
				}
			}
		}
		if abstains == 0 {
			t.Fatalf("%d shards: storm tripped no quorum abstention:\n%s", shards, rep)
		}
		if rep.Fleet.Down == 0 {
			t.Fatalf("%d shards: fleet report shows no down nodes:\n%s", shards, rep)
		}
		out := rep.String()
		for _, want := range []string{"abstain", "soak extended", "nodes unreachable)", "lifecycle:"} {
			if !strings.Contains(out, want) {
				t.Fatalf("%d shards: report missing %q:\n%s", shards, want, out)
			}
		}
	}
}

// TestCrashStormBadRollsBack: the quorum gate must not excuse a
// genuinely bad candidate. Under the same storm the surviving canary's
// evidence still fails the gate, and the verdict carries the same
// failure class as a fault-free bad-variant run.
func TestCrashStormBadRollsBack(t *testing.T) {
	t.Parallel()
	rep := runCrashScenario(t, ScenarioCrashStormBad, 0, nil)
	if !rep.RolledBack || rep.Completed || rep.Halted {
		t.Fatalf("crash-storm-bad campaign was not rolled back:\n%s", rep)
	}
	if rep.FailureWave != 1 {
		t.Fatalf("gate failed at wave %d, want the canary wave:\n%s", rep.FailureWave, rep)
	}
	if rep.Failure != taxonomy.FailureInaccurateModel && rep.Failure != taxonomy.FailureEnvironment {
		t.Fatalf("bad variant under crash storm classified %s, want inaccurate-model or environment-interference", rep.Failure)
	}
	canary := cohortSize(rep.Waves[0], rep.Nodes)
	if rep.MaxConverted != canary {
		t.Fatalf("blast radius %d nodes, want the canary cohort %d", rep.MaxConverted, canary)
	}
	if rep.Fleet.Down == 0 {
		t.Fatalf("fleet report shows no down nodes:\n%s", rep)
	}
}

// TestRobustPolicyInertWithoutFaults: the full robustness policy —
// quorum gate, soak extends, deploy retries, down-node tolerance — is
// consulted only when a fault fires, so on a fault-free fleet the
// campaign must run exactly as it does without it, on either engine.
func TestRobustPolicyInertWithoutFaults(t *testing.T) {
	t.Parallel()
	for _, shards := range []int{0, 4} {
		run := func(robust bool) *Report {
			cfg, err := NewScenario(ScenarioSpec{
				Scenario: ScenarioHealthy,
				Nodes:    32,
				Duration: 45 * time.Second,
				Interval: 5 * time.Second,
				Kinds:    []string{"harvest"},
				Seed:     1,
				Shards:   shards,
			})
			if err != nil {
				t.Fatal(err)
			}
			if robust {
				camp := *cfg.Campaign
				camp.Quorum = 0.9
				camp.MaxSoakExtends = 2
				camp.DeployRetries = 2
				camp.TolerateDown = -1
				cfg.Campaign = &camp
			}
			rep, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return rep
		}
		plain, robust := run(false), run(true)
		if !plain.Completed {
			t.Fatalf("%d shards: healthy campaign did not complete:\n%s", shards, plain)
		}
		if !reflect.DeepEqual(robust.Trace, plain.Trace) {
			t.Fatalf("%d shards: robustness policy changed the wave trace:\n%+v\nvs\n%+v", shards, robust.Trace, plain.Trace)
		}
		if got, want := robust.String(), plain.String(); got != want {
			t.Fatalf("%d shards: robustness policy changed the report:\n%s\nvs\n%s", shards, got, want)
		}
	}
}

// TestTolerateDownHalts exercises the halt policy: with TolerateDown 0
// the first decision epoch that sees a down cohort node freezes the
// campaign in place — no further conversion, no rollback — and names
// the environment failure class.
func TestTolerateDownHalts(t *testing.T) {
	t.Parallel()
	rep := runCrashScenario(t, ScenarioCrashStorm, 0, func(c *Config) {
		c.Campaign.TolerateDown = 0
	})
	if !rep.Halted || rep.Completed || rep.RolledBack {
		t.Fatalf("campaign did not halt:\n%s", rep)
	}
	if rep.Failure != taxonomy.FailureEnvironment {
		t.Fatalf("halt classified %s, want environment-interference", rep.Failure)
	}
	if rep.Converted == 0 {
		t.Fatal("halt should freeze the cohort in place, not revert it")
	}
	last := rep.Trace[len(rep.Trace)-1]
	if last.Action != ActionHalt || !strings.Contains(last.Reason, "tolerate-down") {
		t.Fatalf("trace does not end with a tolerate-down halt: %+v", last)
	}
	if !strings.Contains(rep.String(), "outcome: halted at wave") {
		t.Fatalf("report does not render the halt outcome:\n%s", rep)
	}
}

// TestRollbackStranded: when a rollback cannot reach crashed converted
// nodes and the deploy retries exhaust, the nodes are reported
// stranded on the candidate rather than silently counted reverted.
func TestRollbackStranded(t *testing.T) {
	t.Parallel()
	cfg, err := NewScenario(crashSpec(ScenarioCrashStormBad, 0))
	if err != nil {
		t.Fatal(err)
	}
	// A wider first wave (4 nodes) converts at t=0; half the fleet
	// crashes at 2.5 s; quorum 0.5 lets the gate judge the survivors'
	// bad health at the first gate, and the crashed converted nodes
	// outlive the rollback's retries.
	cfg.Campaign.Waves = []float64{0.25, 1}
	cfg.Campaign.Quorum = 0.5
	cfg.Fleet.Lifecycle = faults.Crash{At: 2500 * time.Millisecond, Frac: 0.5, Seed: 1 ^ crashStormSeed}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.RolledBack {
		t.Fatalf("campaign was not rolled back:\n%s", rep)
	}
	if rep.Stranded == 0 {
		t.Fatalf("rollback reports no stranded nodes:\n%s", rep)
	}
	if rep.Converted != 0 {
		t.Fatalf("rolled-back campaign still counts %d converted", rep.Converted)
	}
	if !strings.Contains(rep.String(), "stranded)") {
		t.Fatalf("report does not render the stranded count:\n%s", rep)
	}
}

// --- journal + resume ---

func createTestJournal(t *testing.T, path string, cfg *Config, fingerprint string) *Journal {
	t.Helper()
	j, err := CreateJournal(path, cfg.Campaign.Name, fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Journal = j
	return j
}

// journalPrefix writes a copy of the journal at path holding only the
// header and the first k entries, returning the copy's path.
func journalPrefix(t *testing.T, path string, k int) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	if len(lines) < k+1 {
		t.Fatalf("journal has %d lines, need %d", len(lines), k+1)
	}
	out := filepath.Join(t.TempDir(), "prefix.journal")
	if err := os.WriteFile(out, []byte(strings.Join(lines[:k+1], "")), 0o644); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestJournalRoundTrip(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "run.journal")
	j, err := CreateJournal(path, "camp", "fp")
	if err != nil {
		t.Fatal(err)
	}
	events := []WaveEvent{
		{Epoch: 0, Wave: 1, Action: ActionConvert, Converted: 2},
		{Epoch: 2, At: 10 * time.Second, Wave: 1, Action: ActionPass, Converted: 2,
			Health: CohortHealth{Agents: 2, DataCollected: 100, NodesTotal: 2, NodesReporting: 2}},
		{Epoch: 2, At: 10 * time.Second, Wave: 2, Action: ActionFail, Converted: 4,
			Reason: "bad", Class: taxonomy.FailureInaccurateModel},
	}
	for _, ev := range events {
		if err := j.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	if j.Entries() != len(events) {
		t.Fatalf("Entries = %d, want %d", j.Entries(), len(events))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	hdr, got, err := LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Campaign != "camp" || hdr.Fingerprint != "fp" || hdr.Version != JournalVersion {
		t.Fatalf("header round-trip lost data: %+v", hdr)
	}
	if !reflect.DeepEqual(got, events) {
		t.Fatalf("events round-trip diverged:\n%+v\nvs\n%+v", got, events)
	}
}

func TestJournalTornTail(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "run.journal")
	j, err := CreateJournal(path, "camp", "")
	if err != nil {
		t.Fatal(err)
	}
	ev := WaveEvent{Epoch: 0, Wave: 1, Action: ActionConvert, Converted: 1}
	if err := j.Append(ev); err != nil {
		t.Fatal(err)
	}
	j.Close()
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for name, tail := range map[string]string{
		"unterminated":   `{"seq":1,"event":{"epo`,
		"malformed line": "{\"seq\":1,\"event\"...garbage\n",
	} {
		if err := os.WriteFile(path, append(append([]byte{}, pristine...), tail...), 0o644); err != nil {
			t.Fatal(err)
		}
		j2, _, events, err := ResumeJournal(path)
		if err != nil {
			t.Fatalf("%s tail not tolerated: %v", name, err)
		}
		if len(events) != 1 || events[0] != ev {
			t.Fatalf("%s: valid prefix lost: %+v", name, events)
		}
		// The torn tail is truncated away and appends continue cleanly.
		ev2 := WaveEvent{Epoch: 2, Wave: 1, Action: ActionPass, Converted: 1}
		if err := j2.Append(ev2); err != nil {
			t.Fatal(err)
		}
		j2.Close()
		_, events, err = LoadJournal(path)
		if err != nil || len(events) != 2 || events[1] != ev2 {
			t.Fatalf("%s: append after truncation broken: %v, %+v", name, err, events)
		}
	}
}

func TestJournalCorruption(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	hdr := `{"journal":"sol-campaign","version":1,"campaign":"c"}` + "\n"
	for _, tc := range []struct{ name, content, want string }{
		{"empty", "", "empty"},
		{"bad magic", `{"journal":"nope","version":1,"campaign":"c"}` + "\n", "not a campaign journal"},
		{"bad version", `{"journal":"sol-campaign","version":9,"campaign":"c"}` + "\n", "version 9"},
		{"header trailing bytes", `{"journal":"sol-campaign","version":1,"campaign":"c"}garbage{` + "\n", "data after"},
		{"header then a second value", `{"journal":"sol-campaign","version":1,"campaign":"c"} {}` + "\n", "data after"},
		{"mid corruption", hdr + "garbage\n" + `{"seq":1,"event":{"epoch":2,"at":0,"wave":1,"action":"pass","converted":1,"health":{"agents":0}}}` + "\n", "corrupt"},
		{"seq gap", hdr + `{"seq":1,"event":{"epoch":0,"at":0,"wave":1,"action":"convert","converted":1,"health":{"agents":0}}}` + "\n", "seq"},
	} {
		_, _, err := LoadJournal(write(tc.name, tc.content))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %v, want %q", tc.name, err, tc.want)
		}
	}
}

// FuzzParseJournal: parseJournal never panics, the offset it returns
// is 0 or sits just past a newline, and the prefix it declares valid
// parses back to the same header, events and offset — the fixpoint
// resumeJournal's truncate relies on.
func FuzzParseJournal(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		hdr, events, off, err := parseJournal(data)
		if off < 0 || off > int64(len(data)) || (off > 0 && data[off-1] != '\n') {
			t.Fatalf("offset %d of %d bytes is not 0 or just past a newline", off, len(data))
		}
		if err != nil {
			return
		}
		hdr2, events2, off2, err := parseJournal(data[:off])
		if err != nil {
			t.Fatalf("the valid prefix [:%d] does not parse: %v", off, err)
		}
		if hdr2 != hdr || off2 != off || !reflect.DeepEqual(events2, events) {
			t.Fatalf("re-parsing the valid prefix [:%d] gives header %+v, %d events, offset %d; want %+v, %d, %d",
				off, hdr2, len(events2), off2, hdr, len(events), off)
		}
	})
}

// TestResumeMatchesUninterrupted is the resume contract: a campaign
// killed at ANY wave boundary and resumed from its journal finishes
// with a report and journal byte-identical to the uninterrupted run —
// across scenarios, shard counts, and worker widths.
func TestResumeMatchesUninterrupted(t *testing.T) {
	t.Parallel()
	type variant struct {
		scenario string
		shards   int
		sweep    bool          // try every prefix length, not just 0/mid/all
		horizon  time.Duration // 0 keeps crashSpec's
	}
	variants := []variant{
		{ScenarioCrashStorm, 0, true, 0},
		{ScenarioCrashStorm, 2, false, 0},
		{ScenarioCrashStormBad, 3, false, 0},
		{ScenarioHealthy, 0, false, 45 * time.Second},
		{ScenarioBadVariant, 0, false, 30 * time.Second},
		{ScenarioFaultStorm, 2, false, 35 * time.Second},
	}
	for _, v := range variants {
		v := v
		t.Run(v.scenario+"/shards", func(t *testing.T) {
			t.Parallel()
			sp := crashSpec(v.scenario, v.shards)
			if v.horizon != 0 {
				sp.Duration = v.horizon
			}
			sp.Workers = 1
			cfg, err := NewScenario(sp)
			if err != nil {
				t.Fatal(err)
			}
			full := filepath.Join(t.TempDir(), "full.journal")
			j := createTestJournal(t, full, &cfg, "fp-"+v.scenario)
			want, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			j.Close()
			wantBytes, err := os.ReadFile(full)
			if err != nil {
				t.Fatal(err)
			}
			entries := j.Entries()
			if entries == 0 {
				t.Fatal("uninterrupted run journaled nothing")
			}

			prefixes := []int{0, entries / 2, entries}
			if v.sweep && !testing.Short() {
				prefixes = prefixes[:0]
				for k := 0; k <= entries; k++ {
					prefixes = append(prefixes, k)
				}
			}
			for _, k := range prefixes {
				// Resume re-derives the config independently — and on a
				// different worker width, which must not matter.
				sp2 := sp
				sp2.Workers = 4
				cfg2, err := NewScenario(sp2)
				if err != nil {
					t.Fatal(err)
				}
				prefix := journalPrefix(t, full, k)
				got, err := Resume(cfg2, prefix, "fp-"+v.scenario)
				if err != nil {
					t.Fatalf("resume at entry %d: %v", k, err)
				}
				if got.String() != want.String() {
					t.Fatalf("resume at entry %d diverged:\n%s\nvs uninterrupted\n%s", k, got, want)
				}
				if !reflect.DeepEqual(got.Trace, want.Trace) {
					t.Fatalf("resume at entry %d: trace diverged", k)
				}
				gotBytes, err := os.ReadFile(prefix)
				if err != nil {
					t.Fatal(err)
				}
				if string(gotBytes) != string(wantBytes) {
					t.Fatalf("resume at entry %d: journal bytes diverge from uninterrupted", k)
				}
			}
		})
	}
}

// TestResumeRefusesMismatch: a journal resumed under the wrong
// campaign, fingerprint, or seed must be refused, not silently
// produce a franken-run — and a resume refused on the header (wrong
// name, wrong fingerprint) must leave the file byte-identical, torn
// tail included: it is someone else's journal.
func TestResumeRefusesMismatch(t *testing.T) {
	t.Parallel()
	sp := crashSpec(ScenarioCrashStormBad, 0)
	cfg, err := NewScenario(sp)
	if err != nil {
		t.Fatal(err)
	}
	// The journal carries the fingerprint solrollout wrote for this
	// scenario before scenarios were manifests: FNV-64a of its flags.
	h := fnv.New64a()
	h.Write([]byte("scenario|crash-storm-bad|16|30s|5s||2|harvest|1|0"))
	fp := fmt.Sprintf("%016x", h.Sum64())
	path := filepath.Join(t.TempDir(), "run.journal")
	j := createTestJournal(t, path, &cfg, fp)
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	j.Close()
	// A torn tail, the footprint of a crash mid-append.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":99,"event":{"epo`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	untouched := func(what string) {
		t.Helper()
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(after) != string(before) {
			t.Fatalf("%s: refused resume rewrote the journal (%d -> %d bytes)", what, len(before), len(after))
		}
	}

	fresh := func() Config {
		c, err := NewScenario(sp)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	c := fresh()
	c.Campaign.Name = "other"
	if _, err := Resume(c, path, fp); err == nil || !strings.Contains(err.Error(), "other") {
		t.Fatalf("campaign mismatch not refused: %v", err)
	}
	untouched("campaign mismatch")
	if _, err := Resume(fresh(), path, "different-fp"); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("fingerprint mismatch not refused: %v", err)
	}
	untouched("fingerprint mismatch")
	// The same scenario, fingerprinted as the manifest it now is.
	m, err := sp.manifest()
	if err != nil {
		t.Fatal(err)
	}
	mfp, err := m.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(fresh(), path, mfp); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("pre-manifest scenario fingerprint not refused: %v", err)
	}
	untouched("pre-manifest scenario fingerprint")
	// A config that diverges behaviorally (different seed shuffles the
	// cohort differently) is caught by replay verification.
	div := sp
	div.Seed = 99
	c2, err := NewScenario(div)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(c2, path, ""); err == nil || !strings.Contains(err.Error(), "diverges") {
		t.Fatalf("behavioral divergence not detected: %v", err)
	}
	// A journal holding MORE events than the run produces (horizon cut
	// short) is detected too.
	short := sp
	short.Duration = 5 * time.Second // ends before the canary gate
	c3, err := NewScenario(short)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(c3, path, ""); err == nil || !strings.Contains(err.Error(), "recorded events") {
		t.Fatalf("journal overrun not detected: %v", err)
	}
}

// TestJournalDivergenceNamesField: a journal whose one entry differs
// from the re-derived decision in a single field is refused with that
// field and both of its values named — the two sides of a divergence
// can otherwise render identically (same action, wave and epoch).
func TestJournalDivergenceNamesField(t *testing.T) {
	t.Parallel()
	sp := crashSpec(ScenarioCrashStormBad, 4)
	cfg, err := NewScenario(sp)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recorded := rep.Trace[0]
	recorded.Converted++
	path := filepath.Join(t.TempDir(), "run.journal")
	j, err := CreateJournal(path, cfg.Campaign.Name, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(recorded); err != nil {
		t.Fatal(err)
	}
	j.Close()
	cfg, err = NewScenario(sp)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Resume(cfg, path, "")
	want := fmt.Sprintf("recorded Converted %d, this run produced %d", recorded.Converted, rep.Trace[0].Converted)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("divergence error = %v, want it to contain %q", err, want)
	}
}

// TestRobustReportGolden pins the exact rendering of the
// fault-tolerance surfaces: the abstain and halt trace rows, the
// attendance suffix on cohort health, the halted outcome, and the
// fleet report's lifecycle line.
func TestRobustReportGolden(t *testing.T) {
	t.Parallel()
	health := CohortHealth{
		Agents: 3, ModelTriggers: 1, DataRejected: 120, DataCollected: 4000,
		DeadlineMet: 3, DeadlineEligible: 3,
		NodesTotal: 4, NodesReporting: 3, NodesDown: 1,
	}
	rep := &Report{
		Nodes:    8,
		Interval: 5 * time.Second,
		Campaign: "buffer-3",
		Kinds:    []string{"harvest"},
		Waves:    []float64{0.25, 1},
		Trace: []WaveEvent{
			{Epoch: 0, At: 0, Wave: 1, Action: ActionConvert, Converted: 2},
			{Epoch: 2, At: 10 * time.Second, Wave: 1, Action: ActionAbstain, Converted: 2,
				Health: health,
				Reason: "quorum not met: 3/4 cohort nodes reporting, need 90%"},
			{Epoch: 3, At: 15 * time.Second, Wave: 1, Action: ActionHalt, Converted: 2,
				Health: health,
				Reason: "1 cohort nodes down > tolerate-down 0",
				Class:  taxonomy.FailureEnvironment},
		},
		Halted:        true,
		Failure:       taxonomy.FailureEnvironment,
		FailureWave:   1,
		FailureReason: "1 cohort nodes down > tolerate-down 0",
		MaxConverted:  2,
		Converted:     1,
		Fleet: &fleet.Report{
			Nodes: 8, Agents: 8, Duration: 20 * time.Second, Events: 1234,
			Down: 2, Restarts: 1,
			Kinds: map[string]*fleet.KindStats{
				"harvest": {Agents: 8, DeadlineMet: 6, DeadlineEligible: 6},
			},
		},
	}
	const want = `campaign "buffer-3" on kind harvest: 8 nodes, 2 waves, 5s epochs
epoch         t wave action   cohort  detail
    0        0s    1 convert       2  
    2       10s    1 abstain       2  quorum not met: 3/4 cohort nodes reporting, need 90% — soak extended; agents=3 halted=0 failing=0 act-trig=0 model-trig=1 viol=0 rejected=120/4000 deadline=3/3 nodes=3/4 down=1 dark=0
    3       15s    1 halt          2  1 cohort nodes down > tolerate-down 0 [environment-interference] agents=3 halted=0 failing=0 act-trig=0 model-trig=1 viol=0 rejected=120/4000 deadline=3/3 nodes=3/4 down=1 dark=0
outcome: halted at wave 1/2 (cohort frozen: 1/8 nodes on candidate) — environment-interference: 1 cohort nodes down > tolerate-down 0
fleet: 8 nodes, 8 agents, 20s simulated, 1234 events
lifecycle: 2 down, 0 restarting, 1 restarts
kind        agents   actions  on-model   default  no-pred  halted failing   mitig  deadline
harvest          8         0         0         0        0       0       0       0       6/6`
	if got := rep.String(); got != want {
		t.Fatalf("golden mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestRobustReportStrandedGolden pins the rolled-back outcome line's
// stranded suffix.
func TestRobustReportStrandedGolden(t *testing.T) {
	t.Parallel()
	rep := &Report{
		Nodes: 8, Interval: 5 * time.Second, Campaign: "bad", Kinds: []string{"harvest"},
		Waves:      []float64{0.25, 1},
		RolledBack: true, Failure: taxonomy.FailureInaccurateModel, FailureWave: 1,
		FailureReason: "model-failing fraction 1.000 > 0.250",
		MaxConverted:  2, Stranded: 1,
		Fleet: &fleet.Report{Nodes: 8, Kinds: map[string]*fleet.KindStats{}},
	}
	want := "outcome: rolled back at wave 1/2 (max cohort 2/8 nodes, 1 stranded) — inaccurate-model: " +
		taxonomy.FailureInaccurateModel.Describe() + "\n"
	if got := rep.String(); !strings.Contains(got, want) {
		t.Fatalf("stranded outcome line missing:\n%s\nwant substring:\n%s", got, want)
	}
}
