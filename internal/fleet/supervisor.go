// Package fleet scales SOL from one agent on one node to the paper's
// deployment shape: several heterogeneous agents co-located on every
// node (§6 runs SmartOverclock, SmartHarvest, and SmartMemory side by
// side), and a cloud fleet of many such nodes managed together.
//
// Two layers are provided. Supervisor owns one node's agents: it
// launches them on a shared clock and node, exposes their safeguard
// state and counters uniformly through core.Handle, and stops them as
// a group. Fleet drives hundreds of per-node simulations in parallel
// on a worker pool — each node on its own deterministic virtual clock
// — and aggregates the runtime counters across the fleet per agent
// kind, which is the view a platform operator has of a rollout.
package fleet

import (
	"fmt"
	"sync"
	"time"

	"sol/internal/core"
	"sol/internal/spec"
)

// Member is one agent managed by a Supervisor.
type Member struct {
	// Kind labels the agent type (e.g. overclock.Kind); fleet stats
	// aggregate per kind.
	Kind string
	// Name identifies the member within its supervisor; unique.
	Name string
	// Handle is the agent's type-erased runtime. For a registered paper
	// kind it is that kind's *Agent, whose Model and Actuator carry the
	// fault hooks.
	Handle core.Handle
	// MaxActuationDelay is the member's actuation deadline from its
	// SOL schedule. The supervisor uses it to report deadline
	// compliance; zero disables that accounting for the member.
	MaxActuationDelay time.Duration
	// Spec is the declarative agent spec the member was last launched
	// from — what a crashed node's Restart relaunches.
	Spec spec.Agent
}

// LifecycleState is a supervisor's node-level availability: the state
// machine a fault plan's crashes and restarts drive. Up is the normal
// running state; Down means every member was stopped by Crash (the
// node watchdog running CleanUp) while the substrates and clock keep
// advancing; Restarting is the transient (or stuck, after a failed
// relaunch) state between Crash and a successful Restart.
type LifecycleState uint8

const (
	LifecycleUp LifecycleState = iota
	LifecycleRestarting
	LifecycleDown
)

// String renders the state for reports and errors.
func (s LifecycleState) String() string {
	switch s {
	case LifecycleUp:
		return "up"
	case LifecycleRestarting:
		return "restarting"
	case LifecycleDown:
		return "down"
	}
	return "invalid"
}

// MemberStatus is a point-in-time snapshot of one member.
type MemberStatus struct {
	Kind string
	Name string
	// Stats is the member runtime's counter snapshot.
	Stats core.Stats
	// Halted reports whether the actuator safeguard has the member's
	// actuator loop halted.
	Halted bool
	// ModelFailing reports whether the model safeguard is currently
	// intercepting the member's predictions.
	ModelFailing bool
	// MaxActuationDelay echoes the member's configured deadline.
	MaxActuationDelay time.Duration
}

// DeadlineFloor returns the minimum number of actions a member that
// never missed its MaxActuationDelay deadline must have taken over an
// observation window. The runtime may act more often (it wakes for
// every fresh prediction) but never less, unless its actuator was
// halted by the safeguard — halting is the one sanctioned way to stop
// acting.
func (m MemberStatus) DeadlineFloor(window time.Duration) uint64 {
	if m.MaxActuationDelay <= 0 || window < m.MaxActuationDelay {
		return 0
	}
	return uint64(window / m.MaxActuationDelay)
}

// Supervisor runs N heterogeneous agents co-located on one shared
// clock and (optionally) one shared simulated node, the way SOL
// deploys its agents in production. It is safe for concurrent use:
// on a real clock, agent callbacks, Status, and StopAll may race.
type Supervisor struct {
	mu sync.Mutex
	// members starts as a window onto memberArr, so a node running
	// one agent of each kind never regrows it.
	members   []Member
	memberArr [usualMembers]Member
	env       spec.NodeEnv
	stopped   bool
	life      LifecycleState
	restarts  int

	// replaceMu serializes deploys (LaunchSpec, ReplaceSpec, Crash,
	// Restart) end to end. A deploy must drop mu around agent Stops and
	// launches (both run agent code), and without this two concurrent
	// ReplaceSpecs of the same member would each install a handle — the
	// loser's agent leaking alive, unreachable by StopAll.
	replaceMu sync.Mutex
}

// usualMembers sizes a supervisor's inline member table: one member of
// each kind in AllKinds.
const usualMembers = 4

// NewSupervisor returns an empty supervisor whose agents deploy on
// env: its clock, and the shared node the agents manage (nil for
// supervisors whose agents run against other substrates only).
func NewSupervisor(env spec.NodeEnv) *Supervisor {
	s := &Supervisor{env: env}
	s.members = s.memberArr[:0]
	return s
}

// SetEnv replaces the node environment declarative agent specs resolve
// against: the clock, substrate handles, and baseline params. Node
// builders call it once the substrates exist; after that, any member
// kind — including the substrate-backed ones — can be redeployed via
// ReplaceSpec for as long as the supervisor lives.
func (s *Supervisor) SetEnv(env spec.NodeEnv) {
	s.mu.Lock()
	s.env = env
	s.mu.Unlock()
}

// Env returns the node environment as last set (see SetEnv).
func (s *Supervisor) Env() spec.NodeEnv {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.env
}

// LaunchSpec resolves the declarative agent spec a against the kind
// registry, launches it on the supervisor's node environment, and
// attaches it under a.Kind/name. The member's actuation deadline comes
// from the resolved params' schedule. Specs are the only way onto a
// supervisor: a member's spec is what ReplaceSpec swaps and what
// Restart relaunches after a crash.
func (s *Supervisor) LaunchSpec(name string, a spec.Agent) error {
	if name == "" {
		return fmt.Errorf("fleet: %s member has no name", a.Kind)
	}
	s.replaceMu.Lock()
	defer s.replaceMu.Unlock()
	s.mu.Lock()
	err := s.deployableLocked("launch", name)
	if err == nil && s.indexLocked(name) >= 0 {
		err = fmt.Errorf("fleet: duplicate member %q", name)
	}
	s.mu.Unlock()
	if err != nil {
		return err
	}
	b, err := spec.Bind(a, s.Env())
	if err != nil {
		return err
	}
	h, deadline, err := b.Launch()
	if err != nil {
		return fmt.Errorf("fleet: launch %s/%s: %w", a.Kind, name, err)
	}
	s.mu.Lock()
	if s.stopped {
		// StopAll won the race; the new agent must not outlive it.
		s.mu.Unlock()
		h.Stop()
		return fmt.Errorf("fleet: supervisor stopped during launch of %q", name)
	}
	s.members = append(s.members, Member{Kind: a.Kind, Name: name, Handle: h, MaxActuationDelay: deadline, Spec: a})
	s.mu.Unlock()
	return nil
}

// ReplaceSpec redeploys the member named name from a declarative
// agent spec, resolved against the supervisor's node environment: the
// running agent is stopped (its Actuator's CleanUp restores a clean
// substrate), then its successor launches at the same virtual instant,
// keeping the member's kind, name, and attach position. This is the
// control plane's rollout/rollback primitive — convert a node to a
// candidate variant, or revert it to baseline — and it works for every
// registered kind: the environment carries the substrate handles
// (tiered memory, telemetry), so the substrate survives the redeploy.
//
// The spec's kind must match the member's: the member keeps its kind
// label, and a mismatched agent under it would corrupt every kind-keyed
// view (fleet aggregation, cohort health). A spec whose params do not
// resolve is refused before the running agent is touched. If the launch
// itself fails, the member stays attached with its stopped handle
// (counters frozen, safeguards clear) and the error is returned; the
// node is then agent-less for that kind, which callers must treat as a
// failed deployment, not a healthy node.
func (s *Supervisor) ReplaceSpec(name string, a spec.Agent) error {
	s.replaceMu.Lock()
	defer s.replaceMu.Unlock()
	s.mu.Lock()
	idx := s.indexLocked(name)
	err := s.deployableLocked("replace", name)
	switch {
	case err != nil:
	case idx < 0:
		err = fmt.Errorf("fleet: no member %q to replace", name)
	case s.members[idx].Kind != a.Kind:
		err = fmt.Errorf("fleet: member %s/%s cannot be replaced by a %q spec", s.members[idx].Kind, name, a.Kind)
	}
	var old Member
	if err == nil {
		old = s.members[idx]
	}
	s.mu.Unlock()
	if err != nil {
		return err
	}
	b, err := spec.Bind(a, s.Env())
	if err != nil {
		return err
	}

	// Stop first so CleanUp hands the replacement a clean substrate; no
	// virtual time passes between the stop and the relaunch.
	old.Handle.Stop()
	h, deadline, err := b.Launch()
	if err != nil {
		return fmt.Errorf("fleet: replace %s/%s: %w", old.Kind, name, err)
	}
	s.mu.Lock()
	if s.stopped {
		// StopAll won the race; the replacement must not outlive it.
		s.mu.Unlock()
		h.Stop()
		return fmt.Errorf("fleet: supervisor stopped during replace of %q", name)
	}
	m := &s.members[idx]
	m.Handle, m.MaxActuationDelay, m.Spec = h, deadline, a
	s.mu.Unlock()
	return nil
}

// deployableLocked reports why member name cannot be deployed (verb:
// launched or replaced) now: a stopped supervisor, or a node that is
// not up.
func (s *Supervisor) deployableLocked(verb, name string) error {
	if s.stopped {
		return fmt.Errorf("fleet: supervisor is stopped")
	}
	if s.life != LifecycleUp {
		return fmt.Errorf("fleet: cannot %s %q on a %s node", verb, name, s.life)
	}
	return nil
}

// indexLocked returns the attach position of the member named name, or
// -1. A node has a handful of members, so a scan beats a map.
func (s *Supervisor) indexLocked(name string) int {
	for i := range s.members {
		if s.members[i].Name == name {
			return i
		}
	}
	return -1
}

// Members returns a copy of the member list, in attach order.
func (s *Supervisor) Members() []Member {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Member, len(s.members))
	copy(out, s.members)
	return out
}

// Status snapshots every member, in attach order.
func (s *Supervisor) Status() []MemberStatus { return s.statusInto(nil) }

// statusInto is Status appending into dst[:0], so a caller with room
// for every member allocates nothing. Like HealthDetailInto it queries
// the runtimes under the member-table lock: runtimes never call back
// into their supervisor, so no lock cycle exists.
func (s *Supervisor) statusInto(dst []MemberStatus) []MemberStatus {
	dst = dst[:0]
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.members {
		m := &s.members[i]
		h := m.Handle.Health()
		dst = append(dst, MemberStatus{
			Kind:              m.Kind,
			Name:              m.Name,
			Stats:             m.Handle.Stats(),
			Halted:            h.Halted,
			ModelFailing:      h.ModelFailing,
			MaxActuationDelay: m.MaxActuationDelay,
		})
	}
	return dst
}

// MemberHealth pairs one member's identity with its cheap runtime
// health snapshot — the per-agent view the control plane aggregates
// into rollout-gate cohort health between lockstep epochs.
type MemberHealth struct {
	Kind string
	Name string
	// MaxActuationDelay echoes the member's configured deadline, for
	// per-interval deadline-compliance accounting.
	MaxActuationDelay time.Duration
	Health            core.Health
}

// HealthDetailInto snapshots every member's health, in attach order,
// into dst's backing array (nil for a fresh slice) — allocation-free
// once dst has grown to the member count, which is what lets a
// control plane poll cohort health every fine-grained epoch across a
// 10k-node fleet without feeding the GC (a single GC mark of a
// gigabyte-scale fleet heap costs more than the whole epoch). Unlike Status, it queries the runtimes while holding the
// member-table lock: runtimes never call back into their supervisor,
// so no lock cycle exists, and each Health call is itself a single
// cheap snapshot.
func (s *Supervisor) HealthDetailInto(dst []MemberHealth) []MemberHealth {
	dst = dst[:0]
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.members {
		m := &s.members[i]
		dst = append(dst, MemberHealth{
			Kind:              m.Kind,
			Name:              m.Name,
			MaxActuationDelay: m.MaxActuationDelay,
			Health:            m.Handle.Health(),
		})
	}
	return dst
}

// Crash stops every member in place — the node's agent stack dies, the
// watchdog runs each Actuator's CleanUp — and marks the node Down. The
// substrates and the clock keep advancing underneath; that surviving
// state is what Restart resumes onto. Unlike StopAll this is not
// terminal: the supervisor refuses deploys while down but accepts a
// Restart. Crashing a stopped or already-down node is a no-op.
func (s *Supervisor) Crash() {
	s.replaceMu.Lock()
	defer s.replaceMu.Unlock()
	s.mu.Lock()
	if s.stopped || s.life == LifecycleDown {
		s.mu.Unlock()
		return
	}
	s.life = LifecycleDown
	// Every writer of the member table holds replaceMu, as Crash does,
	// so the table cannot move under the stops below.
	members := s.members
	s.mu.Unlock()
	// Stop outside mu (agent code runs), reverse attach order so
	// dependents stop before their substrates — same order as StopAll.
	for i := len(members) - 1; i >= 0; i-- {
		members[i].Handle.Stop()
	}
}

// Restart relaunches every member of a Down node from its recorded
// declarative spec against the node environment, in attach order, and
// marks the node Up. Members keep their kind, name, and attach
// position; counters restart from zero (it is a new agent process) but
// the substrates retain whatever state they reached while the node was
// down. If a relaunch fails, the members this attempt already
// relaunched are stopped again, the node stays Restarting, and the
// error is returned; a later Restart retries every member.
func (s *Supervisor) Restart() error {
	s.replaceMu.Lock()
	defer s.replaceMu.Unlock()
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return fmt.Errorf("fleet: supervisor is stopped")
	}
	if s.life == LifecycleUp {
		s.mu.Unlock()
		return nil
	}
	s.life = LifecycleRestarting
	// Only this Restart writes the member table until it returns (every
	// writer holds replaceMu), so it reads the table without mu and
	// writes each relaunched handle under it, for Status's sake.
	members := s.members
	env := s.env
	s.mu.Unlock()

	for i := range members {
		m := &members[i]
		h, deadline, err := spec.Launch(m.Spec, env)
		if err != nil {
			// The retry relaunches these too; left running, their
			// handles would be overwritten out of StopAll's reach.
			for j := i - 1; j >= 0; j-- {
				members[j].Handle.Stop()
			}
			return fmt.Errorf("fleet: restart %s/%s: %w", m.Kind, m.Name, err)
		}
		s.mu.Lock()
		if s.stopped {
			s.mu.Unlock()
			h.Stop()
			return fmt.Errorf("fleet: supervisor stopped during restart")
		}
		m.Handle = h
		m.MaxActuationDelay = deadline
		s.mu.Unlock()
	}

	s.mu.Lock()
	s.life = LifecycleUp
	s.restarts++
	s.mu.Unlock()
	return nil
}

// Lifecycle returns the node's current availability state.
func (s *Supervisor) Lifecycle() LifecycleState {
	s.mu.Lock()
	life := s.life
	s.mu.Unlock()
	return life
}

// Restarts returns how many times the node completed a crash/restart
// cycle.
func (s *Supervisor) Restarts() int {
	s.mu.Lock()
	n := s.restarts
	s.mu.Unlock()
	return n
}

// StopAll stops every member (running each Actuator's CleanUp) and
// refuses further attaches. It is idempotent; members are stopped in
// reverse attach order so dependents stop before their substrates.
func (s *Supervisor) StopAll() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	s.stopped = true
	// Every writer of the member table refuses once stopped is set
	// under mu, so the table is frozen: stop from it without a copy.
	members := s.members
	s.mu.Unlock()
	for i := len(members) - 1; i >= 0; i-- {
		members[i].Handle.Stop()
	}
}
