package fleet

import (
	"fmt"
	"time"

	"sol/internal/agents/harvest"
	"sol/internal/agents/memory"
	"sol/internal/agents/overclock"
	"sol/internal/agents/sampler"
	"sol/internal/clock"
	"sol/internal/core"
	"sol/internal/memsim"
	"sol/internal/node"
	"sol/internal/spec"
	"sol/internal/stats"
	"sol/internal/telemetry"
	"sol/internal/workload"
)

// StandardKinds is the paper's production co-location: SmartOverclock,
// SmartHarvest, and SmartMemory on every node.
var StandardKinds = []string{overclock.Kind, harvest.Kind, memory.Kind}

// AllKinds adds the SmartSampler extension agent.
var AllKinds = []string{overclock.Kind, harvest.Kind, memory.Kind, sampler.Kind}

// StandardNodeConfig tunes StandardNode.
type StandardNodeConfig struct {
	// Kinds selects which agents to co-locate; nil means
	// StandardKinds.
	Kinds []string
	// Seed offsets every node's workload seeds, so two fleets with
	// different Seeds see different (but individually deterministic)
	// traffic.
	Seed uint64
	// MemRegions sizes SmartMemory's tiered memory; 0 means 128.
	MemRegions int
	// Options applies to every launched runtime (safeguard ablation,
	// fault injection). The zero value is full production behaviour.
	Options core.Options
}

// nodeSeed derives node idx's workload/agent seed root; every
// per-node stream hangs off it so the fleet is heterogeneous but
// reproducible.
func (cfg StandardNodeConfig) nodeSeed(idx int) uint64 {
	return cfg.Seed*1_000_003 + uint64(idx)
}

// baseParams is the per-node baseline the spec resolver overlays, and
// the one place a node's per-kind variants and seeds are decided: each
// kind's defaults with a per-node seed. A declarative agent spec with
// empty params deploys exactly the variant StandardNode launched, and
// partial params change only the knobs they name — per-node seeds, VM
// wiring, and the fleet-coarsened schedules all survive conversion and
// rollback. Rollout campaigns derive their candidates from it, and
// rollback relaunches it.
func (cfg StandardNodeConfig) baseParams(idx int) func(kind string) any {
	seed := cfg.nodeSeed(idx)
	return func(kind string) any {
		switch kind {
		case overclock.Kind:
			v := overclock.DefaultVariant("batch")
			v.Config.Seed = seed + 2
			return &v
		case harvest.Kind:
			// The paper calibrates SmartHarvest at 50 µs usage sampling
			// on a dedicated node; simulating hundreds of nodes in one
			// process at that rate spends almost all events on one agent.
			// Sampling at 1 ms with 25 samples per epoch keeps the
			// paper's 25 ms epoch, 100 ms actuation deadline, and 100 ms
			// assessments, trading intra-millisecond burst resolution for
			// a 50x cheaper node. The coarser sampling lags bursts by a
			// full epoch, so two spare cores stay granted to keep vCPU
			// wait off the primary VM.
			v := harvest.DefaultVariant("primary", "elastic")
			v.Config.Seed = seed + 3
			v.Config.SafetyBuffer = 2
			v.Schedule = core.Schedule{
				DataPerEpoch:           25,
				DataCollectInterval:    time.Millisecond,
				MaxEpochTime:           35 * time.Millisecond,
				AssessModelEvery:       1,
				MaxActuationDelay:      100 * time.Millisecond,
				AssessActuatorInterval: 100 * time.Millisecond,
				PredictionTTL:          100 * time.Millisecond,
			}
			return &v
		case memory.Kind:
			v := memory.DefaultVariant()
			v.Config.Seed = seed + 4
			return &v
		case sampler.Kind:
			v := sampler.DefaultVariant()
			v.Config.Seed = seed + 5
			return &v
		}
		return nil
	}
}

// BaselineEnv returns the node environment agent-spec resolution sees
// on node idx — the runtime options and per-kind baseline variants —
// without building any substrate. It resolves params (campaign
// planning, dry-run diffs) but cannot launch agents: the clock, node,
// and substrate handles are absent.
func (cfg StandardNodeConfig) BaselineEnv(idx int) spec.NodeEnv {
	return spec.NodeEnv{Options: cfg.Options, Base: cfg.baseParams(idx)}
}

// StandardNode returns a NodeFunc that builds one production-shaped
// node: a simulated server with a latency-critical primary VM, an
// elastic harvest VM, and a batch VM, plus a tiered-memory simulator
// and a telemetry source, with cfg.Kinds agents co-located on them.
// Workload phases and seeds vary per node index, so a fleet is
// heterogeneous yet fully deterministic.
func StandardNode(cfg StandardNodeConfig) NodeFunc {
	kinds := cfg.Kinds
	if kinds == nil {
		kinds = StandardKinds
	}
	regions := cfg.MemRegions
	if regions == 0 {
		regions = 128
	}
	if regions < 1 {
		err := fmt.Errorf("fleet: MemRegions = %d, must be >= 1", cfg.MemRegions)
		return func(int, *clock.Virtual) (*Supervisor, error) { return nil, err }
	}
	// What depends on cfg alone is computed here, once, and read — never
	// written — by every node the NodeFunc builds, on whichever worker
	// builds it: the DVFS table inside ncfg and the SQL traces' Zipf
	// weights.
	ncfg := node.DefaultConfig()
	// 1 ms ticks: fine enough for the coarsened harvest sampling,
	// 10x coarser than the single-node harvest experiments.
	ncfg.TickInterval = time.Millisecond
	traces := workload.SQLTraces(regions)
	return func(idx int, clk *clock.Virtual) (*Supervisor, error) {
		seed := cfg.nodeSeed(idx)

		n, err := node.New(clk, ncfg)
		if err != nil {
			return nil, err
		}
		// Batch VM for SmartOverclock: phase length varies across the
		// fleet so nodes are not in lockstep.
		period := time.Duration(60+idx%40) * time.Second
		syn := workload.NewSynthetic(period, 80)
		if _, err := n.AddVM("batch", 4, syn); err != nil {
			return nil, err
		}
		// Primary + elastic VMs for SmartHarvest.
		tb := workload.NewImageDNN(stats.NewRNG(seed+1), 8, 1.5)
		if _, err := n.AddVM("primary", 8, tb); err != nil {
			return nil, err
		}
		el := workload.NewElastic()
		if _, err := n.AddVM("elastic", 8, el); err != nil {
			return nil, err
		}
		if err := n.SetAvailableCores("elastic", 0); err != nil {
			return nil, err
		}
		n.Start()

		// Every agent is constructed from a declarative spec resolved
		// against the node environment below. Substrates (tiered
		// memory, telemetry) are created here and handed to the env —
		// not built by the agents' launches — so the supervisor can
		// redeploy any kind later (Supervisor.ReplaceSpec) with the
		// substrate, and its accumulated state, surviving the swap.
		env := cfg.BaselineEnv(idx)
		env.Clock, env.Node = clk, n
		sup := NewSupervisor(env)
		for _, kind := range kinds {
			var err error
			switch kind {
			case overclock.Kind, harvest.Kind:
			case memory.Kind:
				tr := traces.New(seed + 4)
				mem, merr := memsim.New(clk, memsim.DefaultConfig(regions), tr)
				if merr != nil {
					err = merr
					break
				}
				mem.Start()
				env.Mem = mem
			case sampler.Kind:
				src, serr := telemetry.New(clk, telemetry.DefaultConfig())
				if serr != nil {
					err = serr
					break
				}
				src.Start()
				env.Telemetry = src
			default:
				err = fmt.Errorf("fleet: unknown agent kind %q", kind)
			}
			if err == nil {
				sup.SetEnv(env)
				err = sup.LaunchSpec(kind, spec.Agent{Kind: kind})
			}
			if err != nil {
				sup.StopAll()
				return nil, err
			}
		}
		return sup, nil
	}
}
