// Package spec makes agent deployment declarative: an agent is
// described by a serializable Agent value — which kind, which variant,
// which parameter overrides — and constructed by resolving that value
// against a registry of kinds, each a default Variant and a launch, on
// the node it lands on. It is the only way to start a paper agent: on
// a fleet supervisor, in an experiment, or in cmd/solagent.
//
// The paper's CleanUp contract ("callable at any time, by anyone")
// extends naturally to deployment: the people who operate a fleet are
// not the people who wrote the agents, so the thing they roll out must
// be storable, diffable, and loadable from a file. A spec.Agent is
// exactly that — the JSON form of "run SmartHarvest, variant buffer-3,
// with these knobs" — and the related offloading literature ships
// declaratively-specified compute units to nodes the same way: a spec
// travels, a registry at the node turns it into running code.
//
// Resolution happens at deploy time only (launch, replace, rollback,
// restart); nothing on the per-event hot path touches the registry.
package spec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"sol/internal/clock"
	"sol/internal/core"
	"sol/internal/memsim"
	"sol/internal/node"
	"sol/internal/telemetry"
)

// WireVersion guards the JSON shape of Agent, Schedule, and Options —
// the spec forms stored in campaign manifests and diffed by operators.
// Bump it (and regenerate the wirelock) on any field change.
const WireVersion = 1

// Agent is a serializable description of one agent deployment. The
// zero Params deploy the environment's baseline for the kind (or the
// kind's registered defaults when the environment has none), so
// {"kind": "harvest"} alone is a complete, meaningful spec: "whatever
// this node normally runs".
//
//sollint:wire WireVersion
type Agent struct {
	// Kind names the registered agent kind (e.g. "harvest").
	Kind string `json:"kind"`
	// Variant labels the parameterization in campaigns and reports;
	// when non-empty it overrides the params' variant name.
	Variant string `json:"variant,omitempty"`
	// Params is a partial JSON overlay onto the kind's typed params
	// (its Variant struct): only the fields present are overridden,
	// everything else keeps the environment's baseline value. Unknown
	// fields are rejected at resolve time.
	Params json.RawMessage `json:"params,omitempty"`
	// Schedule, when present, replaces the params' SOL schedule
	// wholesale.
	Schedule *Schedule `json:"schedule,omitempty"`
	// Options, when present, replaces the runtime ablation flags; the
	// environment's non-serializable hooks (fault injection, tracing)
	// are always preserved.
	Options *Options `json:"options,omitempty"`
}

// Validate checks that the spec resolves against the registry: the
// kind is registered, Params decodes cleanly (no unknown fields) over
// the kind's defaults, and the schedule the spec resolves to — whether
// set via the Schedule override or smuggled through the Params overlay
// — is internally consistent. It needs no environment, so manifests
// can be validated before a fleet exists.
func (a Agent) Validate() error {
	r, err := Resolve(a)
	if err != nil {
		return err
	}
	p, err := r.params(NodeEnv{})
	if err != nil {
		return err
	}
	if err := p.schedule().Validate(); err != nil {
		return fmt.Errorf("spec: %s schedule: %w", a.Kind, err)
	}
	return nil
}

// NodeEnv is everything a builder may need to construct an agent on
// one node: the clock and substrates, the node's baseline params, and
// the environment-wide runtime options. Supervisors carry their env so
// a control plane can redeploy any kind — including the
// substrate-backed ones — long after the node was built.
type NodeEnv struct {
	// Clock is the node's clock; every agent loop schedules on it.
	Clock clock.Clock
	// Node is the simulated server, for node-bound kinds (nil for
	// supervisors whose agents run against other substrates only).
	Node *node.Node
	// Mem is the tiered-memory substrate, for the memory kind.
	Mem *memsim.Memory
	// Telemetry is the sampling substrate, for the sampler kind.
	Telemetry *telemetry.Source
	// Options is the environment's runtime options (fault injection,
	// ablation); spec-level Options flags overlay it at launch.
	Options core.Options
	// Base, when non-nil, returns a fresh pointer to the environment's
	// baseline params for kind — a *Variant of the kind's config, e.g.
	// the fleet's per-node variant with its per-node seed — or nil when
	// the environment has no opinion, in which case the kind's
	// registered defaults apply. Spec Params overlay whatever Base
	// returns.
	Base func(kind string) any
}

// Variant is a named, fully deployable parameterization of one agent
// kind: its config plus SOL schedule. It is every kind's typed spec
// params — Agent.Params overlays it field by field — and what the fleet
// control plane rolls out in health-gated waves and rolls back by
// relaunching the baseline variant.
type Variant[C any] struct {
	// Name labels the variant in rollout campaigns and reports.
	Name     string
	Config   C
	Schedule core.Schedule
}

// customize applies the spec-level overrides: a non-empty variant name
// and, when sched is non-nil, a full schedule replacement.
func (v *Variant[C]) customize(name string, sched *core.Schedule) {
	if name != "" {
		v.Name = name
	}
	if sched != nil {
		v.Schedule = *sched
	}
}

// schedule returns the variant's SOL schedule — the source of the
// member's actuation deadline, and what load-time validation checks.
func (v *Variant[C]) schedule() core.Schedule { return v.Schedule }

// variant is a *Variant[C] with its config type erased.
type variant interface {
	customize(name string, sched *core.Schedule)
	schedule() core.Schedule
}

// builder is a registered kind with its config type erased. The
// variant handed to launch is always the kind's own *Variant[C]: its
// defaults, or what NodeEnv.Base returned for the kind.
type builder interface {
	// defaults returns a fresh copy of the kind's registered defaults.
	defaults() variant
	// launch builds and starts the agent from p on env.
	launch(env NodeEnv, p variant) (core.Handle, error)
}

// kind is one registration: what Register was given.
type kind[C any] struct {
	def   Variant[C]
	start func(NodeEnv, Variant[C]) (core.Handle, error)
}

func (k kind[C]) defaults() variant {
	v := k.def
	return &v
}

func (k kind[C]) launch(env NodeEnv, p variant) (core.Handle, error) {
	return k.start(env, *p.(*Variant[C]))
}

var (
	regMu    sync.RWMutex
	registry = make(map[string]builder)
)

// Register installs agent kind name: defaults is its canonical variant,
// what a spec resolves to on an environment with no Base for the kind,
// and launch builds and starts the agent from a resolved variant. Each
// resolve copies defaults, so C must be a plain value: a config holding
// a pointer, slice or map would share it between deployments. Agent
// packages call Register from init, so importing an agent makes its
// kind resolvable. It panics on an empty name, a nil launch, or a
// duplicate registration — all programmer errors, not runtime
// conditions.
func Register[C any](name string, defaults Variant[C], launch func(NodeEnv, Variant[C]) (core.Handle, error)) {
	if name == "" {
		panic("spec: Register with empty kind")
	}
	if launch == nil {
		panic("spec: Register " + name + " with a nil launch")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic("spec: duplicate Register of kind " + name)
	}
	registry[name] = kind[C]{def: defaults, start: launch}
}

// Kinds returns the registered kinds, sorted.
func Kinds() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for k := range registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Resolve binds a spec to its kind's registered builder. It fails on
// an empty or unregistered kind; params are decoded later, per
// environment, because the baseline they overlay is per-node.
func Resolve(a Agent) (Resolved, error) {
	if a.Kind == "" {
		return Resolved{}, fmt.Errorf("spec: agent has no kind")
	}
	regMu.RLock()
	b := registry[a.Kind]
	regMu.RUnlock()
	if b == nil {
		return Resolved{}, fmt.Errorf("spec: unknown agent kind %q (registered: %v)", a.Kind, Kinds())
	}
	return Resolved{spec: a, b: b}, nil
}

// Bind resolves a against the registry and computes its final params
// on env: everything that can fail before any agent code runs. The
// returned Bound launches the agent; a redeploy binds its successor
// before stopping the running agent.
func Bind(a Agent, env NodeEnv) (Bound, error) {
	r, err := Resolve(a)
	if err != nil {
		return Bound{}, err
	}
	p, err := r.params(env)
	if err != nil {
		return Bound{}, err
	}
	if a.Options != nil {
		env.Options = a.Options.Apply(env.Options)
	}
	return Bound{r: r, env: env, p: p}, nil
}

// Launch binds a on env and launches it, returning the running agent's
// handle and its actuation deadline.
func Launch(a Agent, env NodeEnv) (core.Handle, time.Duration, error) {
	b, err := Bind(a, env)
	if err != nil {
		return nil, 0, err
	}
	return b.Launch()
}

// Resolved is a spec bound to its kind's registration, ready to resolve
// params on any node environment.
type Resolved struct {
	spec Agent
	b    builder
}

// params computes the final typed params for env: the environment
// baseline (or registered defaults), overlaid with the spec's Params,
// then the spec-level variant-name and schedule overrides.
func (r Resolved) params(env NodeEnv) (variant, error) {
	var p variant
	if env.Base != nil {
		if base := env.Base(r.spec.Kind); base != nil {
			p = base.(variant)
		}
	}
	if p == nil {
		p = r.b.defaults()
	}
	if len(r.spec.Params) > 0 {
		dec := json.NewDecoder(bytes.NewReader(r.spec.Params))
		dec.DisallowUnknownFields()
		if err := dec.Decode(p); err != nil {
			// Stored manifests outlive agent-config changes; when the
			// overlay stops decoding, name the kind and the offending
			// field and point at the migration path instead of leaving
			// a bare json error.
			return nil, fmt.Errorf("spec: %s params do not decode against the registered kind: %w (the %s params may have changed since this spec was stored — compare the manifest against the kind's current variant fields and migrate it)",
				r.spec.Kind, err, r.spec.Kind)
		}
	}
	var sched *core.Schedule
	if r.spec.Schedule != nil {
		s := r.spec.Schedule.Core()
		sched = &s
	}
	p.customize(r.spec.Variant, sched)
	return p, nil
}

// Params returns the final typed params the spec resolves to on env —
// a pointer to the kind's Variant — without launching anything. Useful
// for diffing what a spec would deploy.
func (r Resolved) Params(env NodeEnv) (any, error) { return r.params(env) }

// Bound is a spec resolved on one node environment, its params final
// and the spec-level Options flags overlaid onto the environment's (the
// environment's hook fields are preserved).
type Bound struct {
	r   Resolved
	env NodeEnv
	p   variant
}

// Launch builds and starts the agent, returning its handle and
// actuation deadline.
func (b Bound) Launch() (core.Handle, time.Duration, error) {
	h, err := b.r.b.launch(b.env, b.p)
	if err != nil {
		return nil, 0, fmt.Errorf("spec: launch %s: %w", b.r.spec.Kind, err)
	}
	return h, b.p.schedule().MaxActuationDelay, nil
}
