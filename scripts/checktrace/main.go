// checktrace validates -trace exports in CI: each argument must be a
// Chrome Trace Event JSON file produced by solfleet/solrollout -trace,
// carrying the versioned sol wire form under its "sol" key. It checks
// the wire contract (schema name, version and shape gates via
// obs.ParseTrace) and the structural invariants every well-formed
// trace holds — sim-time is monotone non-decreasing within each track,
// and every track's span begin/end events pair up balanced — so a
// probe regression fails CI loudly instead of shipping an unloadable
// trace.
package main

import (
	"encoding/json"
	"fmt"
	"os"

	"sol/internal/obs"
)

func check(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	// The export is the Chrome file; the sol envelope rides along under
	// "sol". Re-marshal that subtree through the version gate.
	var file struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
		Sol         json.RawMessage   `json:"sol"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		return fmt.Errorf("trace file does not parse: %w", err)
	}
	if len(file.TraceEvents) == 0 {
		return fmt.Errorf("no traceEvents — Perfetto would load an empty view")
	}
	if len(file.Sol) == 0 {
		return fmt.Errorf("no sol envelope riding along")
	}
	tr, err := obs.ParseTrace(file.Sol)
	if err != nil {
		return err
	}
	if err := checkTracks(tr); err != nil {
		return err
	}
	fmt.Printf("%s: ok (%d shard tracks, %d events, %d heap samples)\n",
		path, tr.Shards, len(tr.Events), len(tr.Heap))
	return nil
}

// checkTracks verifies per-track monotone sim-time and balanced span
// begin/end pairing. A trace that dropped events (ring overflow) keeps
// the monotonicity check but skips pairing — the drops are
// oldest-first, so a begin can be gone while its end survived.
func checkTracks(tr *obs.Trace) error {
	for track := -1; track < tr.Shards; track++ {
		evs := tr.Track(track)
		last := int64(-1 << 62)
		depth := 0
		for i, ev := range evs {
			if ev.At < last {
				return fmt.Errorf("track %d: sim-time goes backwards at event %d (%s at %dns after %dns)",
					track, i, ev.Kind, ev.At, last)
			}
			last = ev.At
			switch ev.Kind {
			case obs.EvSpanBegin:
				depth++
			case obs.EvSpanEnd:
				depth--
				if depth < 0 && tr.Dropped == 0 {
					return fmt.Errorf("track %d: span end without a begin at event %d (%dns)", track, i, ev.At)
				}
			}
		}
		if depth != 0 && tr.Dropped == 0 {
			return fmt.Errorf("track %d: %d unbalanced span begin/end pairs", track, depth)
		}
	}
	// Heap samples live beside the tracks but follow the same clock.
	last := int64(-1 << 62)
	for i, hs := range tr.Heap {
		if hs.At < last {
			return fmt.Errorf("heap: sim-time goes backwards at sample %d (%dns after %dns)", i, hs.At, last)
		}
		last = hs.At
	}
	return nil
}

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: checktrace file.json ...")
		os.Exit(2)
	}
	for _, path := range os.Args[1:] {
		if err := check(path); err != nil {
			fmt.Fprintf(os.Stderr, "checktrace: %s: %v\n", path, err)
			os.Exit(1)
		}
	}
}
