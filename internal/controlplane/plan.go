package controlplane

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"sol/internal/fleet"
	"sol/internal/spec"
)

// Plan renders the manifest's campaign as a dry-run review: for every
// target kind, the resolved node-0 variant delta between the baseline
// the fleet would launch and the candidate the campaign would deploy —
// without building a fleet or advancing any time. This is what makes
// manifest review safe: a reviewer sees exactly which knobs a wave
// conversion changes (and that rollback restores), not the partial
// JSON overlay that produced them.
//
// Node 0 stands in for the fleet: per-node baselines differ only in
// derived seeds, which specs never override (an overlay that tried
// would show up in the delta).
func (m *Manifest) Plan() (string, error) {
	if err := m.Validate(); err != nil {
		return "", err
	}
	if m.Campaign == nil {
		return "", fmt.Errorf("controlplane: manifest has no campaign to plan")
	}
	camp := m.Campaign
	std := m.std()
	// Mirror the run-time "no node runs this kind" refusal: a plan must
	// not green-light a manifest whose campaign targets a kind the
	// node co-location never launches.
	colocated := std.Kinds
	if colocated == nil {
		colocated = fleet.StandardKinds
	}
	for _, tg := range camp.Targets {
		kind := tg.Candidate.Kind
		found := false
		for _, k := range colocated {
			found = found || k == kind
		}
		if !found {
			return "", fmt.Errorf("controlplane: campaign %q targets kind %q, but the manifest's kinds (%s) never launch it",
				camp.Name, kind, strings.Join(colocated, ", "))
		}
	}
	env := std.BaselineEnv(0)

	var b strings.Builder
	fmt.Fprintf(&b, "plan: campaign %q over %d nodes, %d target(s)\n", camp.Name, m.Nodes, len(camp.Targets))
	waves := make([]string, len(camp.Waves))
	for i, w := range camp.Waves {
		waves[i] = fmt.Sprintf("%g%%", w*100)
	}
	fmt.Fprintf(&b, "waves %s, soak %d epochs of %v", strings.Join(waves, " -> "), camp.SoakEpochs, m.interval())
	if m.Shards > 0 {
		fmt.Fprintf(&b, ", %d shard(s)", m.Shards)
	}
	b.WriteString("\n")
	if camp.robust() {
		tolerate := "halt on first down node"
		switch {
		case camp.TolerateDown < 0:
			tolerate = "tolerate any down"
		case camp.TolerateDown > 0:
			tolerate = fmt.Sprintf("tolerate %d down", camp.TolerateDown)
		}
		fmt.Fprintf(&b, "policy: quorum %g%%, max soak extends %d, deploy retries %d, %s\n",
			camp.quorum()*100, camp.MaxSoakExtends, camp.DeployRetries, tolerate)
	}
	if f := m.Faults; f != nil {
		if c := f.Crash; c != nil {
			fmt.Fprintf(&b, "faults: crash %g%% of nodes %g epochs into wave %d's soak\n", c.Frac*100, c.Epochs, c.Wave)
		}
		if d := f.ModelDelay; d != nil {
			fmt.Fprintf(&b, "faults: model steps delayed %v through wave %d's soak\n", d.Delay.D(), d.Wave)
		}
	}
	for _, tg := range camp.Targets {
		kind := tg.Candidate.Kind
		cand, err := resolveParams(tg.Candidate, env)
		if err != nil {
			return "", err
		}
		base, err := resolveParams(tg.baseline(), env)
		if err != nil {
			return "", err
		}
		label := tg.Candidate.Variant
		if label == "" {
			label = "(unnamed)"
		}
		fmt.Fprintf(&b, "target %s, variant %s, node-0 delta vs baseline:\n", kind, label)
		delta := diffParams(base, cand)
		if len(delta) == 0 {
			b.WriteString("  (no parameter changes)\n")
			continue
		}
		for _, d := range delta {
			fmt.Fprintf(&b, "  %s\n", d)
		}
	}
	return strings.TrimRight(b.String(), "\n"), nil
}

// resolveParams resolves a spec's final typed params on env and
// flattens them to sorted path/value pairs via their JSON form.
func resolveParams(a spec.Agent, env spec.NodeEnv) (map[string]string, error) {
	r, err := spec.Resolve(a)
	if err != nil {
		return nil, err
	}
	p, err := r.Params(env)
	if err != nil {
		return nil, err
	}
	raw, err := json.Marshal(p)
	if err != nil {
		return nil, fmt.Errorf("controlplane: %s params: %w", a.Kind, err)
	}
	var tree any
	if err := json.Unmarshal(raw, &tree); err != nil {
		return nil, fmt.Errorf("controlplane: %s params: %w", a.Kind, err)
	}
	flat := make(map[string]string)
	flatten("", tree, flat)
	// The variant's Name is a label, not a knob: it is reported in the
	// plan header, never as a delta.
	delete(flat, "Name")
	return flat, nil
}

// flatten walks a decoded JSON tree into path -> rendered-leaf pairs.
func flatten(prefix string, v any, out map[string]string) {
	switch v := v.(type) {
	case map[string]any:
		for k, child := range v {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			flatten(p, child, out)
		}
	case []any:
		for i, child := range v {
			flatten(fmt.Sprintf("%s[%d]", prefix, i), child, out)
		}
	default:
		raw, err := json.Marshal(v)
		if err != nil {
			raw = []byte(fmt.Sprintf("%v", v))
		}
		out[prefix] = string(raw)
	}
}

// diffParams renders the field-level delta between two flattened param
// sets, in sorted path order: changed values as "path: base -> cand",
// fields only one side has as added/removed.
func diffParams(base, cand map[string]string) []string {
	paths := make(map[string]bool, len(base)+len(cand))
	for p := range base {
		paths[p] = true
	}
	for p := range cand {
		paths[p] = true
	}
	sorted := make([]string, 0, len(paths))
	for p := range paths {
		sorted = append(sorted, p)
	}
	sort.Strings(sorted)
	var out []string
	for _, p := range sorted {
		bv, inBase := base[p]
		cv, inCand := cand[p]
		switch {
		case inBase && inCand && bv != cv:
			out = append(out, fmt.Sprintf("%s: %s -> %s", p, bv, cv))
		case inBase && !inCand:
			out = append(out, fmt.Sprintf("%s: %s -> (removed)", p, bv))
		case !inBase && inCand:
			out = append(out, fmt.Sprintf("%s: (added) %s", p, cv))
		}
	}
	return out
}
