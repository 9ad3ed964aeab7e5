// Command solrollout runs a fleet rollout campaign under the SOL
// control plane: agent variants are deployed across a simulated fleet
// in health-gated waves (1% → 5% → 25% → 100% by default), every node
// advancing in deterministic lockstep epochs. Each wave proceeds only
// while the converted cohort passes the shared health gate; a failed
// gate rolls the whole cohort — every target kind — back to the
// baseline variants and names the paper's §3.2 failure class it
// tripped on.
//
// Every campaign is a JSON manifest that declares the whole run — fleet,
// wave plan, gate, one or more agent-variant targets, and the faults
// the fleet suffers — so rollouts can be stored, reviewed, and diffed
// like any other config:
//
//	solrollout -config examples/rollout/manifest.json
//
// Five built-in scenarios are manifests embedded in the binary, named
// with -scenario:
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
// The sizing flags (-nodes, -duration, -interval, -waves, -soak,
// -agents, -seed, -workers, -shards) override the loaded manifest's
// values when given, whichever way it was loaded; a flag left out
// keeps the manifest's value.
//
// -shards partitions the fleet coordination: each shard soaks and
// observes its cohort slice on its own barrier, and the fleet aligns
// only at gate boundaries (see internal/shard). It is a pure scaling
// knob: the default is one shard, and every count runs the same
// campaign state machine. -plan reviews a campaign without running
// anything: it prints the resolved node-0 variant delta (baseline vs
// candidate) per target kind.
//
// -journal records every campaign decision to a crash-safe journal as
// it is made; if the scheduler is killed, -resume continues the same
// campaign from the journal, producing a report byte-identical to the
// uninterrupted run. The journal carries the effective manifest's
// fingerprint, so resuming under different flags is refused instead of
// silently diverging. -kill-after n exits with status 3 once the
// journal holds n decisions — the crash half of a kill/resume round
// trip in CI.
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
//	solrollout -scenario crash-storm -plan       # of a built-in scenario too
//	solrollout -journal run.journal -kill-after 2   # crash mid-campaign
//	solrollout -journal run.journal -resume         # continue it
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"sol/internal/controlplane"
	"sol/internal/spec"
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
			"campaign manifest (JSON) to run instead of a built-in scenario")
		scenario = flag.String("scenario", controlplane.ScenarioHealthy,
			"built-in scenario: "+strings.Join(controlplane.Scenarios(), ", "))
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
	sizingFlags(flag.CommandLine)
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
	}

	var m *controlplane.Manifest
	var err error
	switch {
	case *config != "" && isSet("scenario"):
		log.Fatalf("solrollout: -config and -scenario both name the campaign; drop one of the flags")
	case *config != "":
		m, err = controlplane.LoadManifest(*config)
	default:
		m, err = controlplane.ScenarioManifest(*scenario)
	}
	if err == nil {
		err = applyFlags(flag.CommandLine, m)
	}
	if err != nil {
		log.Fatalf("solrollout: %v", err)
	}
	if *plan {
		out, err := m.Plan()
		if err != nil {
			log.Fatalf("solrollout: %v", err)
		}
		fmt.Println(out)
		return
	}
	cfg, err := m.Config()
	if err != nil {
		log.Fatalf("solrollout: %v", err)
	}
	fingerprint, err := m.Fingerprint()
	if err != nil {
		log.Fatalf("solrollout: %v", err)
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

// isSet reports whether the named flag was given on the command line.
func isSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}

// sizingFlags defines on fs the flags applyFlags reads. They have no
// defaults of their own: a flag left out keeps the manifest's value.
func sizingFlags(fs *flag.FlagSet) {
	fs.Int("nodes", 0, "number of simulated nodes (built-in scenarios: 100)")
	fs.Duration("duration", 0, "simulated horizon (built-in scenarios: 1m)")
	fs.Duration("interval", 0, "lockstep observation epoch (built-in scenarios: 5s)")
	fs.String("waves", "", "comma-separated cumulative wave fractions (built-in scenarios: 0.01,0.05,0.25,1)")
	fs.Int("soak", 0, "epochs each wave soaks before its gate (built-in scenarios: 2)")
	fs.String("agents", "", "comma-separated agent kinds to co-locate on every node (built-in scenarios: all standard kinds)")
	fs.Uint64("seed", 0, "fleet-wide workload, cohort-shuffle and crash seed (built-in scenarios: 1)")
	fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	fs.Int("shards", 0, "coordination shards, a pure scaling knob (0 = one shard)")
}

// applyFlags overrides m with every sizing flag given on fs's command
// line, whether m is a built-in scenario or a -config manifest; a flag
// left out keeps m's value. The journal fingerprint hashes the result,
// so it covers every override that changes the campaign: all but
// -workers, and -shards 1 where the manifest has no shards.
func applyFlags(fs *flag.FlagSet, m *controlplane.Manifest) error {
	var err error
	fs.Visit(func(f *flag.Flag) {
		if err != nil {
			return
		}
		v := f.Value.(flag.Getter).Get()
		camp := m.Campaign
		if camp == nil && (f.Name == "waves" || f.Name == "soak") {
			err = fmt.Errorf("-%s: the manifest has no campaign", f.Name)
			return
		}
		switch f.Name {
		case "nodes":
			m.Nodes = v.(int)
		case "duration":
			m.Duration = spec.Duration(v.(time.Duration))
		case "interval":
			m.Interval = spec.Duration(v.(time.Duration))
		case "waves":
			camp.Waves = nil
			for _, w := range strings.Split(v.(string), ",") {
				frac, perr := strconv.ParseFloat(strings.TrimSpace(w), 64)
				if perr != nil {
					err = fmt.Errorf("bad wave fraction %q: %v", w, perr)
					return
				}
				camp.Waves = append(camp.Waves, frac)
			}
		case "soak":
			camp.SoakEpochs = v.(int)
		case "agents":
			m.Kinds = nil
			for _, k := range strings.Split(v.(string), ",") {
				if k = strings.TrimSpace(k); k != "" {
					m.Kinds = append(m.Kinds, k)
				}
			}
		case "seed":
			m.Seed = v.(uint64)
			if camp != nil {
				camp.Seed = m.Seed
			}
		case "workers":
			m.Workers = v.(int)
		case "shards":
			m.Shards = v.(int)
		}
	})
	return err
}
