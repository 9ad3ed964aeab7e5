// Command solagent runs one of the paper's three agents against the
// simulated node and reports what it did — a demonstration daemon for
// the full agent + SOL runtime stack.
//
// Usage:
//
//	solagent -agent overclock -duration 10m
//	solagent -agent harvest   -duration 2m
//	solagent -agent memory    -duration 30m
//
// Each agent is deployed through the spec registry with its registered
// defaults — exactly what a fleet node runs for that kind. The
// simulation runs on the virtual clock, so it finishes instantly.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"sol/internal/agents/harvest"
	"sol/internal/agents/memory"
	"sol/internal/agents/overclock"
	"sol/internal/clock"
	"sol/internal/memsim"
	"sol/internal/node"
	"sol/internal/spec"
	"sol/internal/stats"
	"sol/internal/workload"
)

func main() {
	var (
		agent    = flag.String("agent", "overclock", "agent to run: overclock, harvest, memory")
		duration = flag.Duration("duration", 10*time.Minute, "simulated duration")
		report   = flag.Duration("report", time.Minute, "reporting interval (simulated)")
	)
	flag.Parse()

	clk := clock.NewVirtual(time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC))
	var err error
	switch *agent {
	case "overclock":
		err = runOverclock(clk, *duration, *report)
	case "harvest":
		err = runHarvest(clk, *duration, *report)
	case "memory":
		err = runMemory(clk, *duration, *report)
	default:
		err = fmt.Errorf("unknown agent %q", *agent)
	}
	if err != nil {
		log.Fatalf("solagent: %v", err)
	}
}

func runOverclock(clk *clock.Virtual, dur, report time.Duration) error {
	n, err := node.New(clk, node.DefaultConfig())
	if err != nil {
		return err
	}
	syn := workload.NewSynthetic(100*time.Second, 120)
	if _, err := n.AddVM("batch", 4, syn); err != nil {
		return err
	}
	n.Start()
	ag, _, err := spec.Launch(spec.Agent{Kind: overclock.Kind}, spec.NodeEnv{Clock: clk, Node: n})
	if err != nil {
		return err
	}
	defer ag.Stop()

	for elapsed := time.Duration(0); elapsed < dur; elapsed += report {
		clk.RunFor(report)
		health := ag.Health()
		fmt.Printf("[%6s] freq=%.1fGHz busy=%-5v batches=%d mean-batch=%.1fs energy=%.0fJ model-failing=%v halted=%v\n",
			elapsed+report, n.FrequencyGHz("batch"), syn.Busy(), syn.BatchesDone(),
			syn.MeanBatchSeconds(), n.EnergyJ("batch"),
			health.ModelFailing, health.Halted)
	}
	fmt.Println("\nruntime counters:")
	fmt.Println(ag.Stats())
	return nil
}

func runHarvest(clk *clock.Virtual, dur, report time.Duration) error {
	cfg := node.DefaultConfig()
	cfg.TickInterval = 50 * time.Microsecond
	n, err := node.New(clk, cfg)
	if err != nil {
		return err
	}
	tb := workload.NewImageDNN(stats.NewRNG(1), 8, 1.5)
	if _, err := n.AddVM("primary", 8, tb); err != nil {
		return err
	}
	el := workload.NewElastic()
	if _, err := n.AddVM("elastic", 8, el); err != nil {
		return err
	}
	n.SetAvailableCores("elastic", 0)
	n.Start()
	h, _, err := spec.Launch(spec.Agent{Kind: harvest.Kind}, spec.NodeEnv{Clock: clk, Node: n})
	if err != nil {
		return err
	}
	defer h.Stop()
	ag := h.(*harvest.Agent)

	for elapsed := time.Duration(0); elapsed < dur; elapsed += report {
		clk.RunFor(report)
		waitP90, waitP99 := ag.Actuator.WaitTailMs()
		health := ag.Health()
		fmt.Printf("[%6s] grant=%d/8 harvested=%.0f core-s P99=%.1fms wait-p90/p99=%.2f/%.2fms served=%d model-failing=%v halted=%v\n",
			elapsed+report, ag.Actuator.Granted(), el.CoreSeconds(),
			tb.P99LatencySeconds()*1000, waitP90, waitP99, tb.Served(),
			health.ModelFailing, health.Halted)
	}
	fmt.Println("\nruntime counters:")
	fmt.Println(ag.Stats())
	return nil
}

func runMemory(clk *clock.Virtual, dur, report time.Duration) error {
	const regions = 256
	tr := workload.NewSQLTrace(regions, 1)
	mem, err := memsim.New(clk, memsim.DefaultConfig(regions), tr)
	if err != nil {
		return err
	}
	mem.Start()
	ag, _, err := spec.Launch(spec.Agent{Kind: memory.Kind}, spec.NodeEnv{Clock: clk, Mem: mem})
	if err != nil {
		return err
	}
	defer ag.Stop()

	prev := mem.Snapshot()
	for elapsed := time.Duration(0); elapsed < dur; elapsed += report {
		clk.RunFor(report)
		cur := mem.Snapshot()
		fmt.Printf("[%6s] tier1=%d/%d remote=%.1f%% scans=%d resets=%.0f migrations=%d model-failing=%v\n",
			elapsed+report, mem.Tier1Regions(), regions,
			100*cur.RemoteFraction(prev), cur.Scans, cur.Resets, cur.Migrations,
			ag.Health().ModelFailing)
		prev = cur
	}
	fmt.Println("\nruntime counters:")
	fmt.Println(ag.Stats())
	return nil
}
