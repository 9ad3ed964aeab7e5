// Command solrollout runs a fleet rollout campaign under the SOL
// control plane: agent variants are deployed across a simulated fleet
// in health-gated waves (1% → 5% → 25% → 100% by default), every node
// advancing in deterministic lockstep epochs. Each wave proceeds only
// while the converted cohort passes the shared health gate; a failed
// gate rolls the whole cohort — every target kind — back to the
// baseline variants and names the paper's §3.2 failure class it
// tripped on.
//
// Campaigns come from two places. Three built-in scenarios demonstrate
// the control plane:
//
//	healthy          a sane candidate; completes at 100%
//	bad-variant      a botched candidate; caught and rolled back at the canary
//	fault-storm      a scheduling-delay storm during wave 3; rolled back,
//	                 while SOL's decoupled actuators keep deadlines met
//	crash-storm      a sane candidate through a 20% node crash storm; the
//	                 quorum gate abstains over missing nodes instead of
//	                 blaming the variant, and the campaign completes
//	crash-storm-bad  a botched candidate during the same storm; still
//	                 caught and rolled back with the right failure class
//
// Or a JSON campaign manifest declares the whole run — fleet, wave
// plan, gate, and one or more agent-variant targets — so rollouts can
// be stored, reviewed, and diffed like any other config:
//
//	solrollout -config examples/rollout/manifest.json
//
// -shards partitions the fleet coordination: each shard soaks and
// observes its cohort slice on its own barrier, and the fleet aligns
// only at gate boundaries (see internal/shard). It is a pure scaling
// knob: the default is one shard, and every count runs the same
// campaign state machine. -plan reviews a manifest without running
// anything: it prints the resolved node-0 variant delta (baseline vs
// candidate) per target kind.
//
// -journal records every campaign decision to a crash-safe journal as
// it is made; if the scheduler is killed, -resume continues the same
// campaign from the journal, producing a report byte-identical to the
// uninterrupted run. The journal carries a configuration fingerprint,
// so resuming under different flags is refused instead of silently
// diverging. -kill-after n exits with status 3 once the journal holds
// n decisions — the crash half of a kill/resume round trip in CI.
//
// Usage:
//
//	solrollout                                   # healthy, 100 nodes
//	solrollout -scenario bad-variant -nodes 250
//	solrollout -scenario fault-storm -waves 0.02,0.1,0.5,1 -soak 3
//	solrollout -scenario crash-storm -expect complete
//	solrollout -config manifest.json -expect rollback
//	solrollout -config manifest.json -shards 8   # eight coordination shards
//	solrollout -config manifest.json -plan       # dry-run review
//	solrollout -journal run.journal -kill-after 2   # crash mid-campaign
//	solrollout -journal run.journal -resume         # continue it
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"sol/internal/controlplane"
	"sol/internal/fleet"
)

// metricsVersion versions the -metrics envelope; the embedded fleet
// report carries its own wire version besides.
const metricsVersion = 1

// metricsOut is the -metrics export: a versioned envelope around the
// full campaign report (trace, verdict, wave profiles, fleet report)
// so CI can validate the schema before trusting the numbers.
//
//sollint:wire metricsVersion
type metricsOut struct {
	Schema     string               `json:"schema"`
	Version    int                  `json:"version"`
	Tool       string               `json:"tool"`
	ElapsedNS  int64                `json:"elapsed_ns"`
	EventsPerS float64              `json:"events_per_s"`
	Report     *controlplane.Report `json:"report"`
}

func main() {
	var (
		config = flag.String("config", "",
			"campaign manifest (JSON); overrides the scenario flags")
		scenario = flag.String("scenario", controlplane.ScenarioHealthy,
			"campaign scenario: "+strings.Join(controlplane.Scenarios(), ", "))
		nodes    = flag.Int("nodes", 100, "number of simulated nodes")
		duration = flag.Duration("duration", time.Minute, "simulated horizon")
		interval = flag.Duration("interval", 5*time.Second, "lockstep observation epoch")
		waves    = flag.String("waves", "", "comma-separated cumulative wave fractions (default 0.01,0.05,0.25,1)")
		soak     = flag.Int("soak", 2, "epochs each wave soaks before its gate")
		agents   = flag.String("agents", strings.Join(fleet.StandardKinds, ","),
			"comma-separated agent kinds to co-locate on every node")
		seed    = flag.Uint64("seed", 1, "fleet-wide workload and cohort-shuffle seed")
		workers = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		shards  = flag.Int("shards", 0,
			"coordination shards, a pure scaling knob (0 = the manifest's value, else one shard)")
		plan = flag.Bool("plan", false,
			"dry run: print the manifest's resolved per-kind variant delta (node 0) and exit without running the fleet")
		expect = flag.String("expect", "",
			"exit nonzero unless the campaign ends this way: complete, rollback (default: no check)")
		journal = flag.String("journal", "",
			"record campaign decisions to this crash-safe journal file (requires a campaign)")
		resume = flag.Bool("resume", false,
			"continue a killed campaign from -journal instead of starting fresh")
		killAfter = flag.Int("kill-after", 0,
			"exit with status 3 once -journal holds this many decisions (CI crash injection; 0 = never)")
		profile = flag.Bool("profile", false,
			"attribute wall time per shard and per wave (step/free/align/wait) and add profile lines to the report")
		metrics = flag.String("metrics", "",
			"write the campaign report (+profiles) as versioned JSON to this file")
		trace = flag.String("trace", "",
			"record a flight-recorder trace and write it as Chrome Trace Event JSON (Perfetto-loadable) to this file")
	)
	flag.Parse()
	switch *expect {
	case "", "complete", "rollback":
	default:
		log.Fatalf("solrollout: -expect %q, want complete or rollback", *expect)
	}
	if *plan && *expect != "" {
		// A dry run never executes the campaign, so an outcome
		// assertion would pass vacuously — refuse the combination
		// instead of letting a CI check silently stop checking.
		log.Fatalf("solrollout: -plan runs nothing, so -expect %s cannot be checked; drop one of the flags", *expect)
	}
	switch {
	case *plan && *journal != "":
		log.Fatalf("solrollout: -plan runs nothing, so there is no campaign to journal; drop one of the flags")
	case (*resume || *killAfter > 0) && *journal == "":
		log.Fatalf("solrollout: -resume and -kill-after need -journal")
	case *resume && *killAfter > 0:
		// Resume re-verifies the recorded prefix and runs to the end;
		// killing it again would need the hook Resume owns internally.
		log.Fatalf("solrollout: -kill-after applies to the recording run, not -resume")
	case *killAfter < 0:
		log.Fatalf("solrollout: -kill-after %d, must be >= 0", *killAfter)
	case *shards < 0:
		log.Fatalf("solrollout: -shards %d, must be >= 0", *shards)
	}

	var cfg controlplane.Config
	var fingerprint string
	if *config != "" {
		raw, err := os.ReadFile(*config)
		if err != nil {
			log.Fatalf("solrollout: %v", err)
		}
		fingerprint = fnvHex(string(raw))
		m, err := controlplane.ParseManifest(raw)
		if err != nil {
			log.Fatalf("solrollout: %v (in %s)", err, *config)
		}
		// The fingerprint is the manifest's bytes, so a journal recorded
		// from a manifest resumes from the same file. An override that
		// changes the effective shard count changes the campaign's cohort
		// partitioning, so it is folded in; one that restates the
		// manifest's count (0 and 1 are both one shard) is not.
		if *shards > 0 {
			if *shards != max(m.Shards, 1) {
				fingerprint = fnvHex(fmt.Sprintf("%s|shards|%d", raw, *shards))
			}
			m.Shards = *shards
		}
		if *plan {
			out, err := m.Plan()
			if err != nil {
				log.Fatalf("solrollout: %v", err)
			}
			fmt.Println(out)
			return
		}
		cfg, err = m.Config()
		if err != nil {
			log.Fatalf("solrollout: %v", err)
		}
	} else if *plan {
		log.Fatalf("solrollout: -plan needs a manifest (-config)")
	} else {
		var kinds []string
		for _, k := range strings.Split(*agents, ",") {
			if k = strings.TrimSpace(k); k != "" {
				kinds = append(kinds, k)
			}
		}
		var fracs []float64
		if *waves != "" {
			for _, w := range strings.Split(*waves, ",") {
				f, err := strconv.ParseFloat(strings.TrimSpace(w), 64)
				if err != nil {
					log.Fatalf("solrollout: bad wave fraction %q: %v", w, err)
				}
				fracs = append(fracs, f)
			}
		}
		sc := controlplane.ScenarioSpec{
			Scenario:   *scenario,
			Nodes:      *nodes,
			Duration:   *duration,
			Interval:   *interval,
			Waves:      fracs,
			SoakEpochs: *soak,
			Kinds:      kinds,
			Seed:       *seed,
			Workers:    *workers,
			Shards:     *shards,
		}
		// The fingerprint covers every flag that shapes campaign
		// decisions. Workers are excluded on purpose: the worker pool
		// width never changes the deterministic trace, so a journal
		// recorded at -workers 1 resumes fine at -workers 8.
		fingerprint = fnvHex(fmt.Sprintf("scenario|%s|%d|%v|%v|%s|%d|%s|%d|%d",
			sc.Scenario, sc.Nodes, sc.Duration, sc.Interval, *waves, sc.SoakEpochs,
			strings.Join(sc.Kinds, ","), sc.Seed, sc.Shards))
		var err error
		cfg, err = controlplane.NewScenario(sc)
		if err != nil {
			log.Fatalf("solrollout: %v", err)
		}
	}
	// Profiling and tracing are excluded from the journal fingerprint
	// for the same reason workers are: they never shape campaign
	// decisions, so a journal recorded without -profile/-trace resumes
	// fine with them (and vice versa) — observability is diagnostics,
	// not state.
	cfg.Fleet.Profile = *profile
	cfg.Fleet.Trace = *trace != ""
	if *journal != "" && cfg.Campaign == nil {
		log.Fatalf("solrollout: -journal needs a campaign, and this configuration has none")
	}

	if camp := cfg.Campaign; camp != nil {
		shardLabel := ""
		if cfg.Fleet.Shards > 0 {
			shardLabel = fmt.Sprintf(" on %d shard(s)", cfg.Fleet.Shards)
		}
		fmt.Printf("rolling out %q (kinds %s) across %d nodes%s for %v, %v lockstep epochs...\n",
			camp.Name, strings.Join(camp.Kinds(), "+"), cfg.Fleet.Nodes, shardLabel, cfg.Fleet.Duration, cfg.Interval)
	} else {
		fmt.Printf("driving %d nodes for %v with no campaign, %v lockstep epochs...\n",
			cfg.Fleet.Nodes, cfg.Fleet.Duration, cfg.Interval)
	}
	wall := time.Now()
	var rep *controlplane.Report
	var err error
	switch {
	case *resume:
		fmt.Printf("resuming from journal %s...\n", *journal)
		rep, err = controlplane.Resume(cfg, *journal, fingerprint)
	case *journal != "":
		j, jerr := controlplane.CreateJournal(*journal, cfg.Campaign.Name, fingerprint)
		if jerr != nil {
			log.Fatalf("solrollout: %v", jerr)
		}
		defer j.Close()
		if *killAfter > 0 {
			n := *killAfter
			j.AfterAppend = func(entries int) {
				if entries >= n {
					fmt.Printf("solrollout: journal holds %d decision(s); exiting as asked (-kill-after %d)\n", entries, n)
					os.Exit(3)
				}
			}
		}
		cfg.Journal = j
		rep, err = controlplane.Run(cfg)
	default:
		rep, err = controlplane.Run(cfg)
	}
	if err != nil {
		log.Fatalf("solrollout: %v", err)
	}
	elapsed := time.Since(wall)

	fmt.Println()
	fmt.Println(rep)
	simulated := time.Duration(cfg.Fleet.Nodes) * cfg.Fleet.Duration
	fmt.Printf("\nwall time %v: %.0fx real time, %.2fM events (%.2fM events/s)\n",
		elapsed.Round(time.Millisecond),
		simulated.Seconds()/elapsed.Seconds(),
		float64(rep.Fleet.Events)/1e6,
		float64(rep.Fleet.Events)/1e6/elapsed.Seconds())

	if *trace != "" {
		// Chrome Trace Event JSON with the versioned sol wire form
		// riding along under the "sol" key — loadable in Perfetto.
		if rep.Fleet.Trace == nil {
			log.Fatalf("solrollout: -trace %s: the run recorded no trace", *trace)
		}
		b, terr := rep.Fleet.Trace.Chrome()
		if terr == nil {
			terr = os.WriteFile(*trace, append(b, '\n'), 0o644)
		}
		if terr != nil {
			log.Fatalf("solrollout: -trace %s: %v", *trace, terr)
		}
		fmt.Printf("trace written to %s (%d events)\n", *trace, len(rep.Fleet.Trace.Events))
	}
	if *metrics != "" {
		out := metricsOut{
			Schema:     "sol-metrics",
			Version:    metricsVersion,
			Tool:       "solrollout",
			ElapsedNS:  int64(elapsed),
			EventsPerS: float64(rep.Fleet.Events) / elapsed.Seconds(),
			Report:     rep,
		}
		b, merr := json.MarshalIndent(out, "", "  ")
		if merr == nil {
			merr = os.WriteFile(*metrics, append(b, '\n'), 0o644)
		}
		if merr != nil {
			log.Fatalf("solrollout: -metrics %s: %v", *metrics, merr)
		}
		fmt.Printf("metrics written to %s\n", *metrics)
	}

	switch {
	case *expect == "complete" && !rep.Completed:
		log.Fatalf("solrollout: expected the campaign to complete, but it did not")
	case *expect == "rollback" && !rep.RolledBack:
		log.Fatalf("solrollout: expected the campaign to roll back, but it did not")
	}
}

// fnvHex is the run-configuration fingerprint written to (and checked
// against) a journal header: FNV-64a of the configuration's canonical
// string form, in hex.
func fnvHex(s string) string {
	h := fnv.New64a()
	h.Write([]byte(s))
	return fmt.Sprintf("%016x", h.Sum64())
}
