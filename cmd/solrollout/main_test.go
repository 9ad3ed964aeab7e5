package main

import (
	"flag"
	"reflect"
	"strings"
	"testing"
	"time"

	"sol/internal/controlplane"
	"sol/internal/spec"
)

// parseFlags parses args with solrollout's sizing flags plus the
// observability flags, which applyFlags must ignore.
func parseFlags(t *testing.T, args ...string) *flag.FlagSet {
	t.Helper()
	fs := flag.NewFlagSet("solrollout", flag.ContinueOnError)
	sizingFlags(fs)
	fs.Bool("profile", false, "")
	fs.String("trace", "", "")
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return fs
}

// TestApplyFlags: the sizing flags override a -config manifest the
// way they override a built-in scenario; a flag left out keeps the
// manifest's value; and the fingerprint covers every override except
// the worker count, observability, and shards 1 for 0.
func TestApplyFlags(t *testing.T) {
	load := func() *controlplane.Manifest {
		m, err := controlplane.LoadManifest("../../examples/rollout/manifest.json")
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	apply := func(args ...string) *controlplane.Manifest {
		t.Helper()
		m := load()
		if err := applyFlags(parseFlags(t, args...), m); err != nil {
			t.Fatal(err)
		}
		return m
	}
	fingerprint := func(m *controlplane.Manifest) string {
		t.Helper()
		fp, err := m.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		return fp
	}

	if got := apply(); !reflect.DeepEqual(got, load()) {
		t.Fatalf("no flags changed the manifest: %+v", got)
	}
	m := apply("-nodes", "20", "-duration", "40s", "-interval", "2s", "-waves", "0.1, 1", "-soak", "3",
		"-agents", "harvest, overclock", "-seed", "9", "-workers", "3", "-shards", "4")
	c := m.Campaign
	switch {
	case m.Nodes != 20, m.Duration != spec.Duration(40*time.Second), m.Interval != spec.Duration(2*time.Second),
		!reflect.DeepEqual(c.Waves, []float64{0.1, 1}), c.SoakEpochs != 3,
		!reflect.DeepEqual(m.Kinds, []string{"harvest", "overclock"}),
		m.Seed != 9, c.Seed != 9, m.Workers != 3, m.Shards != 4:
		t.Fatalf("flags did not land: %+v, campaign %+v", m, c)
	}

	base := fingerprint(load())
	for _, args := range [][]string{
		{"-workers", "8"}, {"-profile", "-trace", "run.json"}, {"-shards", "1"}, {"-shards", "0"},
	} {
		if got := fingerprint(apply(args...)); got != base {
			t.Errorf("%s changed the fingerprint", strings.Join(args, " "))
		}
	}
	for _, args := range [][]string{
		{"-nodes", "13"}, {"-duration", "35s"}, {"-interval", "1s"}, {"-waves", "0.5,1"}, {"-soak", "3"},
		{"-agents", "harvest,overclock"}, {"-seed", "43"}, {"-shards", "4"},
	} {
		if got := fingerprint(apply(args...)); got == base {
			t.Errorf("%s left the fingerprint unchanged", strings.Join(args, " "))
		}
	}

	bare := &controlplane.Manifest{Nodes: 4, Duration: spec.Duration(time.Second)}
	for _, args := range [][]string{{"-waves", "0.5,1"}, {"-soak", "3"}} {
		if err := applyFlags(parseFlags(t, args...), bare); err == nil || !strings.Contains(err.Error(), "no campaign") {
			t.Errorf("%s on a campaign-less manifest: err = %v", strings.Join(args, " "), err)
		}
	}
	if err := applyFlags(parseFlags(t, "-waves", "0.5,x"), load()); err == nil || !strings.Contains(err.Error(), `"x"`) {
		t.Errorf("bad wave fraction: err = %v", err)
	}
}
