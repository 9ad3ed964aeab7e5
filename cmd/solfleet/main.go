// Command solfleet simulates a cloud fleet running SOL agents the way
// the paper deploys them: several heterogeneous agents co-located on
// every node, across hundreds of nodes. Each node runs on its own
// deterministic virtual clock; nodes are simulated in parallel on a
// worker pool and the runtime counters are aggregated per agent kind
// into a fleet-operator report.
//
// The run is one span of the sharded conductor (internal/shard): -shards
// N partitions the nodes into N shards that free-run independently to
// the horizon (one barrier each, at the end), and every node is built,
// run and released on the worker that owns it, so at most -workers
// nodes are alive at once. The report is byte-identical at every shard
// count.
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
// adds profile: lines to the report; since nodes stream, each node's
// build and teardown count as free-running time. -trace records the
// run's flight-recorder trace. Neither changes the simulation output,
// nor how many nodes are alive at once. -metrics writes the full
// report (+profile) as versioned JSON for BENCH and CI to consume.
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
			"partition the fleet into this many conductor shards (0 = one shard; output is identical at every count)")
		seed    = flag.Uint64("seed", 1, "fleet-wide workload seed")
		regions = flag.Int("regions", 128, "tiered-memory regions per node (memory agent)")
		detail  = flag.Bool("detail", false, "print full aggregated runtime counters per kind")
		profile = flag.Bool("profile", false,
			"attribute wall time per shard (step/free/align/wait) and add profile: lines to the report")
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
	rep, err := fleet.Run(cfg)
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
