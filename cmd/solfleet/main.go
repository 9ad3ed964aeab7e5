// Command solfleet simulates a cloud fleet running SOL agents the way
// the paper deploys them: several heterogeneous agents co-located on
// every node, across hundreds of nodes. Each node runs on its own
// deterministic virtual clock; nodes are simulated in parallel on a
// worker pool and the runtime counters are aggregated per agent kind
// into a fleet-operator report.
//
// With -shards N the fleet runs on the Coordinator instead of the
// streaming batch driver: the nodes are partitioned into N shards that
// free-run independently to the horizon (one barrier each, at the
// end), which keeps every node's state alive for mid-run control and
// is the coordination structure that scales one-process simulation to
// 10k-node fleets. The report is byte-identical either way.
//
// Usage:
//
//	solfleet                                  # 100 nodes x 3 agents, 60s
//	solfleet -nodes 500 -duration 2m
//	solfleet -agents overclock,harvest,memory,sampler -nodes 250
//	solfleet -workers 4 -seed 9 -detail
//	solfleet -nodes 10000 -duration 5s -shards 16
//
// -profile attributes the run's wall time per shard (stepping,
// free-running, align observers, barrier wait — see internal/obs) and
// adds profile: lines to the report. Observation lives on the
// Coordinator, so -profile or -trace without -shards runs as one shard
// there and holds the whole fleet resident (~45 KB/node) instead of
// streaming. With -shards, -profile also enables -tune, which consumes
// the finished profile to propose per-shard worker allotments for the
// next run (the one sanctioned profile feedback — worker widths never
// change simulation output). -metrics writes the full report (+profile)
// as versioned JSON for BENCH and CI to consume.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"sol/internal/fleet"
)

// metricsVersion versions the -metrics envelope; the embedded fleet
// report carries its own wire version besides.
const metricsVersion = 1

// metricsOut is the -metrics export: a versioned envelope around the
// report so CI can validate the schema before trusting the numbers.
//
//sollint:wire metricsVersion
type metricsOut struct {
	Schema     string        `json:"schema"`
	Version    int           `json:"version"`
	Tool       string        `json:"tool"`
	ElapsedNS  int64         `json:"elapsed_ns"`
	EventsPerS float64       `json:"events_per_s"`
	Report     *fleet.Report `json:"report"`
}

// writeTrace exports the run's flight-recorder trace as Chrome Trace
// Event JSON — loadable in Perfetto / chrome://tracing, with the
// versioned sol wire form riding along under the "sol" key.
func writeTrace(path string, rep *fleet.Report) {
	if rep.Trace == nil {
		log.Fatalf("solfleet: -trace %s: the run recorded no trace", path)
	}
	b, err := rep.Trace.Chrome()
	if err == nil {
		err = os.WriteFile(path, append(b, '\n'), 0o644)
	}
	if err != nil {
		log.Fatalf("solfleet: -trace %s: %v", path, err)
	}
	fmt.Printf("trace written to %s (%d events)\n", path, len(rep.Trace.Events))
}

func writeMetrics(path string, v any) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(b, '\n'), 0o644)
	}
	if err != nil {
		log.Fatalf("solfleet: -metrics %s: %v", path, err)
	}
	fmt.Printf("metrics written to %s\n", path)
}

func main() {
	var (
		nodes    = flag.Int("nodes", 100, "number of simulated nodes")
		duration = flag.Duration("duration", time.Minute, "simulated horizon per node")
		agents   = flag.String("agents", strings.Join(fleet.StandardKinds, ","),
			"comma-separated agent kinds to co-locate on every node")
		workers = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		shards  = flag.Int("shards", 0,
			"run on the Coordinator with this many shards (0 = streaming batch driver; one shard if -profile or -trace)")
		seed    = flag.Uint64("seed", 1, "fleet-wide workload seed")
		regions = flag.Int("regions", 128, "tiered-memory regions per node (memory agent)")
		detail  = flag.Bool("detail", false, "print full aggregated runtime counters per kind")
		profile = flag.Bool("profile", false,
			"attribute wall time per shard (step/free/align/wait) and add profile: lines to the report")
		tune = flag.Bool("tune", false,
			"with -profile -shards: propose busy-time-proportional per-shard worker allotments from the finished profile")
		metrics = flag.String("metrics", "",
			"write the report (+profile) as versioned JSON to this file")
		trace = flag.String("trace", "",
			"record a flight-recorder trace and write it as Chrome Trace Event JSON (Perfetto-loadable) to this file")
	)
	flag.Parse()

	var kinds []string
	for _, k := range strings.Split(*agents, ",") {
		if k = strings.TrimSpace(k); k != "" {
			kinds = append(kinds, k)
		}
	}
	if len(kinds) == 0 {
		log.Fatalf("solfleet: -agents selects no agent kinds (have %s)", strings.Join(fleet.AllKinds, ", "))
	}
	if *regions < 1 {
		log.Fatalf("solfleet: -regions = %d, must be >= 1", *regions)
	}

	if *shards < 0 {
		log.Fatalf("solfleet: -shards = %d, must be >= 0", *shards)
	}
	if *tune && (!*profile || *shards < 1) {
		// Tuning consumes a per-shard profile; the batch driver has no
		// shards to rebalance and an unprofiled run has no evidence.
		log.Fatalf("solfleet: -tune needs -profile and -shards >= 1")
	}
	cfg := fleet.Config{
		Nodes:    *nodes,
		Duration: *duration,
		Workers:  *workers,
		Shards:   *shards,
		Profile:  *profile,
		Trace:    *trace != "",
		Setup: fleet.StandardNode(fleet.StandardNodeConfig{
			Kinds:      kinds,
			Seed:       *seed,
			MemRegions: *regions,
		}),
	}

	shardLabel := ""
	if *shards > 0 {
		shardLabel = fmt.Sprintf(" on %d shard(s)", *shards)
	}
	fmt.Printf("simulating %d nodes x %d co-located agents (%s) for %v each%s...\n",
		*nodes, len(kinds), strings.Join(kinds, ", "), *duration, shardLabel)
	wall := time.Now()
	var rep *fleet.Report
	var co *fleet.Coordinator
	var err error
	if *shards > 0 {
		if co, err = fleet.NewCoordinator(cfg); err == nil {
			co.StepFor(cfg.Duration)
			rep = co.Report()
			co.StopAll()
		}
	} else {
		rep, err = fleet.Run(cfg)
	}
	if err != nil {
		log.Fatalf("solfleet: %v", err)
	}
	elapsed := time.Since(wall)

	fmt.Println()
	fmt.Println(rep)
	fmt.Println()
	simulated := time.Duration(*nodes) * *duration
	fmt.Printf("wall time %v: %.0fx real time, %.2fM events (%.2fM events/s)\n",
		elapsed.Round(time.Millisecond),
		simulated.Seconds()/elapsed.Seconds(),
		float64(rep.Events)/1e6,
		float64(rep.Events)/1e6/elapsed.Seconds())

	if *tune {
		// Rebalance runs strictly after the run: the profile's wall
		// times pick the allotments for a *next* run, never this one.
		allot, rerr := co.Conductor().Rebalance(rep.Profile)
		if rerr != nil {
			log.Fatalf("solfleet: -tune: %v", rerr)
		}
		fmt.Printf("tune: proposed per-shard worker allotments %v (busy-time proportional; rerun with these via shard.Conductor.SetAllotments)\n", allot)
	}
	if *trace != "" {
		writeTrace(*trace, rep)
	}
	if *metrics != "" {
		writeMetrics(*metrics, metricsOut{
			Schema:     "sol-metrics",
			Version:    metricsVersion,
			Tool:       "solfleet",
			ElapsedNS:  int64(elapsed),
			EventsPerS: float64(rep.Events) / elapsed.Seconds(),
			Report:     rep,
		})
	}

	if *detail {
		for _, kind := range rep.KindNames() {
			fmt.Printf("\n=== %s (aggregated over %d agents) ===\n%s\n",
				kind, rep.Kinds[kind].Agents, rep.Kinds[kind].Stats.String())
		}
	}
}
