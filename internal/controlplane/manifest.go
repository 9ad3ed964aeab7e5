package controlplane

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"slices"
	"time"

	"sol/internal/faults"
	"sol/internal/fleet"
	"sol/internal/spec"
)

// Manifest is the stored form of a control-plane run: a StandardNode
// fleet plus (optionally) a campaign, everything declared as data.
// Manifests are what make rollouts operable by people who didn't
// write the agents — a campaign lives in a reviewed, diffable JSON
// file and runs with `solrollout -config manifest.json`, the
// deployment-surface analogue of CleanUp's "callable at any time, by
// anyone".
//
// All durations accept the friendly string form ("45s", "100ms");
// absent campaign waves/soak/gate default to the canonical plan
// (DefaultWaves, DefaultSoakEpochs, DefaultGate). Unknown fields are
// rejected, so typos fail at load, not at the canary.
//
//sollint:wire ManifestVersion
type Manifest struct {
	// Version is the manifest schema version; 0 (absent) means 1.
	// Parsing rejects versions newer than ManifestVersion, so a
	// manifest written by a newer binary fails loudly here instead of
	// half-decoding. Within a version, params that stop decoding
	// against a changed agent kind are caught at resolve time with a
	// migration hint naming the kind and field.
	Version int `json:"version,omitempty"`
	// Name labels the run; reports use the campaign's own name.
	Name string `json:"name,omitempty"`
	// Nodes and Duration size the fleet.
	Nodes    int           `json:"nodes"`
	Duration spec.Duration `json:"duration"`
	// Interval is the lockstep observation epoch; 0 means 5 s.
	Interval spec.Duration `json:"interval,omitempty"`
	// Shards partitions the fleet coordination: each shard soaks and
	// observes its cohort slice locally and the fleet aligns only at
	// gate boundaries. A pure scaling knob: 0 means 1.
	Shards int `json:"shards,omitempty"`
	// Kinds is the per-node co-location; nil means
	// fleet.StandardKinds.
	Kinds []string `json:"kinds,omitempty"`
	// Seed varies workloads and the cohort shuffle.
	Seed uint64 `json:"seed,omitempty"`
	// Workers bounds the worker pool; 0 means GOMAXPROCS.
	Workers int `json:"workers,omitempty"`
	// MemRegions sizes the tiered-memory substrate; 0 means the
	// StandardNode default.
	MemRegions int `json:"mem_regions,omitempty"`
	// Options sets the fleet-wide runtime ablation flags.
	Options *spec.Options `json:"options,omitempty"`
	// Campaign, when present, is executed over the fleet.
	Campaign *Campaign `json:"campaign,omitempty"`
	// Faults, when present, injects failures into the fleet at
	// instants anchored to the campaign's waves (schema version 3).
	Faults *Faults `json:"faults,omitempty"`
}

// Faults is the failure injection a manifest declares: the crash and
// scheduling-delay storms the built-in scenarios run under. Every
// instant is anchored to a wave's soak — wave w soaks from epoch
// (w-1)·soak_epochs when all earlier gates pass — so a storm keeps
// striking the same wave when -interval or -soak changes.
//
//sollint:wire ManifestVersion
type Faults struct {
	// Crash permanently stops a deterministic fraction of the fleet.
	Crash *CrashFault `json:"crash,omitempty"`
	// ModelDelay makes every model step late during one wave's soak.
	ModelDelay *DelayFault `json:"model_delay,omitempty"`
}

// CrashFault crashes Frac of the fleet at Epochs lockstep epochs into
// Wave's soak. The crashed set is drawn from the manifest seed, so
// changing the seed moves it.
//
//sollint:wire ManifestVersion
type CrashFault struct {
	// Frac is the fraction of nodes that crash, in (0, 1].
	Frac float64 `json:"frac"`
	// Wave is the 1-based wave whose soak the crash strikes in.
	Wave int `json:"wave"`
	// Epochs is the offset into the soak, in [0, soak_epochs); 0.5 is
	// half-way through its first epoch, off the epoch grid.
	Epochs float64 `json:"epochs,omitempty"`
}

// DelayFault delays every model step whose intended time falls in
// Wave's soak window by Delay.
//
//sollint:wire ManifestVersion
type DelayFault struct {
	// Wave is the 1-based wave whose soak the delay covers.
	Wave int `json:"wave"`
	// Delay is added to each model step in the window; must be positive.
	Delay spec.Duration `json:"delay"`
}

// crashStormSeed salts the manifest seed for the crash fault's node
// selection, so the crashed set and the cohort shuffle are independent
// draws of the same seed.
const crashStormSeed = 0xbadc0de

// ParseManifest decodes a manifest, rejecting unknown fields and any
// data after it.
func ParseManifest(data []byte) (*Manifest, error) {
	var m Manifest
	if err := decodeStrict(data, &m); err != nil {
		return nil, fmt.Errorf("controlplane: bad manifest: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// decodeStrict decodes data, which must hold exactly one JSON value,
// into v: an unknown field is an error, and so is anything after the
// value but whitespace.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.Decode(new(json.RawMessage)) != io.EOF {
		return errors.New("data after the JSON value")
	}
	return nil
}

// LoadManifest reads and parses the manifest at path.
func LoadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("controlplane: %w", err)
	}
	m, err := ParseManifest(data)
	if err != nil {
		return nil, fmt.Errorf("%w (in %s)", err, path)
	}
	return m, nil
}

// defaultInterval is the lockstep observation epoch a manifest gets
// when it does not set one.
const defaultInterval = 5 * time.Second

// ManifestVersion is the manifest schema version this binary writes
// and the newest it accepts. Bump it when the manifest shape itself
// changes incompatibly; agent-param drift within a version is caught
// field-by-field at resolve time instead.
//
// Version history:
//
//	1 — initial schema (fleet sizing + campaign waves/soak/gate).
//	2 — campaign robustness policy: quorum, max_soak_extends,
//	    deploy_retries, tolerate_down. A version-1 manifest using
//	    these fields is rejected with a hint to declare version 2,
//	    so an old binary's silent-ignore can never be mistaken for
//	    the policy being in force.
//	3 — faults: a crash and a model-delay storm anchored to campaign
//	    waves, which is what lets the built-in scenarios be manifests.
//	    A version-1 or -2 manifest with faults is rejected with a hint
//	    to declare version 3.
const ManifestVersion = 3

// Validate checks the manifest without building a fleet: schema
// version, sizing, the co-located kinds (each a fleet kind, none
// twice), and that every campaign target resolves against the kind
// registry.
func (m *Manifest) Validate() error {
	switch {
	case m.Version < 0 || m.Version > ManifestVersion:
		return fmt.Errorf("controlplane: manifest version %d is not supported (this binary speaks versions 1..%d) — re-export the manifest for this binary or upgrade it",
			m.Version, ManifestVersion)
	case m.Nodes < 1:
		return fmt.Errorf("controlplane: manifest nodes = %d, must be >= 1", m.Nodes)
	case m.Duration <= 0:
		return fmt.Errorf("controlplane: manifest duration = %v, must be positive", m.Duration.D())
	case m.Interval < 0:
		return fmt.Errorf("controlplane: manifest interval = %v, must be >= 0", m.Interval.D())
	case m.Shards < 0:
		return fmt.Errorf("controlplane: manifest shards = %d, must be >= 0", m.Shards)
	case m.Workers < 0:
		return fmt.Errorf("controlplane: manifest workers = %d, must be >= 0", m.Workers)
	case m.MemRegions < 0:
		return fmt.Errorf("controlplane: manifest mem_regions = %d, must be >= 0", m.MemRegions)
	case m.Kinds != nil && len(m.Kinds) == 0:
		// An empty list would launch agent-less nodes, yet marshal (omitempty)
		// to an absent one, which means the standard co-location.
		return fmt.Errorf("controlplane: manifest kinds is empty; omit it for the standard co-location")
	}
	for i, k := range m.Kinds {
		if !slices.Contains(fleet.AllKinds, k) {
			return fmt.Errorf("controlplane: manifest kinds names %q, not one of %v", k, fleet.AllKinds)
		}
		if slices.Contains(m.Kinds[:i], k) {
			return fmt.Errorf("controlplane: manifest kinds names %q twice", k)
		}
	}
	if m.Campaign != nil {
		if err := m.Campaign.validate(); err != nil {
			return err
		}
		// The robustness policy is a version-2 surface. Requiring the
		// declared version keeps the failure mode honest: a version-1
		// manifest with policy fields would parse under this binary but
		// be rejected outright by a version-1 binary — never silently
		// run without the policy.
		if m.Campaign.robust() && m.version() < 2 {
			return fmt.Errorf("controlplane: campaign %q sets a robustness policy (quorum/max_soak_extends/deploy_retries/tolerate_down), which needs manifest version 2 — declare \"version\": 2",
				m.Campaign.Name)
		}
	}
	if m.Faults != nil {
		return m.Faults.validate(m)
	}
	return nil
}

// validate checks that every fault is anchored to a wave the campaign
// has, and that the manifest declares the version that defines faults.
// The float checks are phrased so NaN fails too.
func (f *Faults) validate(m *Manifest) error {
	camp, c, d := m.Campaign, f.Crash, f.ModelDelay
	switch {
	case m.version() < 3:
		return fmt.Errorf("controlplane: manifest declares faults, which need manifest version 3 — declare \"version\": 3")
	case camp == nil:
		return fmt.Errorf("controlplane: manifest faults are anchored to campaign waves, but the manifest has no campaign")
	case c != nil && (c.Wave < 1 || c.Wave > len(camp.Waves)):
		return fmt.Errorf("controlplane: faults.crash is anchored to wave %d, but campaign %q has %d waves", c.Wave, camp.Name, len(camp.Waves))
	case c != nil && !(c.Frac > 0 && c.Frac <= 1):
		return fmt.Errorf("controlplane: faults.crash frac = %v, must be in (0, 1]", c.Frac)
	case c != nil && !(c.Epochs >= 0 && c.Epochs < float64(camp.SoakEpochs)):
		return fmt.Errorf("controlplane: faults.crash epochs = %v, must be in [0, %d) (the soak)", c.Epochs, camp.SoakEpochs)
	case d != nil && (d.Wave < 1 || d.Wave > len(camp.Waves)):
		return fmt.Errorf("controlplane: faults.model_delay is anchored to wave %d, but campaign %q has %d waves", d.Wave, camp.Name, len(camp.Waves))
	case d != nil && d.Delay <= 0:
		return fmt.Errorf("controlplane: faults.model_delay delay = %v, must be positive", d.Delay.D())
	}
	return nil
}

// version is the manifest's effective schema version (absent means 1).
func (m *Manifest) version() int {
	if m.Version == 0 {
		return 1
	}
	return m.Version
}

// std returns the StandardNode configuration the manifest's fleet is
// built from — also the baseline the -plan dry run diffs against.
func (m *Manifest) std() fleet.StandardNodeConfig {
	std := fleet.StandardNodeConfig{
		Seed:       m.Seed,
		Kinds:      m.Kinds,
		MemRegions: m.MemRegions,
	}
	if m.Options != nil {
		std.Options = m.Options.Apply(std.Options)
	}
	return std
}

// interval is the manifest's effective lockstep epoch.
func (m *Manifest) interval() time.Duration {
	if m.Interval == 0 {
		return defaultInterval
	}
	return m.Interval.D()
}

// Config compiles the manifest into a runnable control-plane config
// over a StandardNode fleet.
func (m *Manifest) Config() (Config, error) {
	if err := m.Validate(); err != nil {
		return Config{}, err
	}
	interval := m.interval()
	std := m.std()
	var lifecycle faults.NodePlan
	if f := m.Faults; f != nil {
		soak := time.Duration(m.Campaign.SoakEpochs) * interval
		if d := f.ModelDelay; d != nil {
			from := fleet.DefaultStart.Add(time.Duration(d.Wave-1) * soak)
			std.Options.ModelDelay = (&faults.PeriodicDelay{From: from, Until: from.Add(soak), D: d.Delay.D()}).ModelDelay
		}
		if c := f.Crash; c != nil {
			lifecycle = faults.Crash{
				At:   time.Duration(c.Wave-1)*soak + time.Duration(c.Epochs*float64(interval)),
				Frac: c.Frac,
				Seed: m.Seed ^ crashStormSeed,
			}
		}
	}
	return Config{
		Fleet: fleet.Config{
			Nodes:     m.Nodes,
			Duration:  m.Duration.D(),
			Workers:   m.Workers,
			Shards:    m.Shards,
			Setup:     fleet.StandardNode(std),
			Lifecycle: lifecycle,
		},
		Interval: interval,
		Campaign: m.Campaign,
	}, nil
}

// Fingerprint identifies the run the manifest describes, for campaign
// journal headers: FNV-64a of the manifest's canonical JSON, in hex.
// Workers is left out, because the pool width never changes the
// trace, and shards 0 and 1 hash alike, because both are one shard —
// so a journal resumes under either.
func (m *Manifest) Fingerprint() (string, error) {
	c := *m
	c.Workers = 0
	if c.Shards == 1 {
		c.Shards = 0
	}
	b, err := json.Marshal(&c)
	if err != nil {
		return "", fmt.Errorf("controlplane: manifest fingerprint: %w", err)
	}
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64()), nil
}
