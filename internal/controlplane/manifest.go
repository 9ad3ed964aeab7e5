package controlplane

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"time"

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
}

// ParseManifest decodes a manifest, rejecting unknown fields.
func ParseManifest(data []byte) (*Manifest, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var m Manifest
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("controlplane: bad manifest: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
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
const ManifestVersion = 2

// Validate checks the manifest without building a fleet: schema
// version, sizing, and that every campaign target resolves against
// the kind registry.
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

// Config compiles the manifest into a runnable control-plane config
// over a StandardNode fleet.
func (m *Manifest) Config() (Config, error) {
	if err := m.Validate(); err != nil {
		return Config{}, err
	}
	interval := m.Interval.D()
	if interval == 0 {
		interval = defaultInterval
	}
	return Config{
		Fleet: fleet.Config{
			Nodes:    m.Nodes,
			Duration: m.Duration.D(),
			Workers:  m.Workers,
			Shards:   m.Shards,
			Setup:    fleet.StandardNode(m.std()),
			Start:    fleet.DefaultStart,
		},
		Interval: interval,
		Campaign: m.Campaign,
	}, nil
}
