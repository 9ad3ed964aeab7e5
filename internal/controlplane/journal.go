package controlplane

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// The campaign journal is a crash-safe, append-only record of a
// campaign's wave trace: a JSON header line naming the campaign,
// then one JSON line per WaveEvent, each fsynced before the deploys
// it describes are considered durable. Because a campaign is a
// deterministic function of its Config, resuming a killed run does
// not need checkpointed fleet state: Resume re-simulates from the
// virtual start and verifies each decision it re-derives against the
// journal's recorded prefix (with ==, field for field) before
// appending new entries past it. A torn final line — the footprint
// of a crash mid-write — is detected and dropped; corruption
// anywhere earlier is an error.
const (
	journalMagic = "sol-campaign"
	// JournalVersion is the journal format version written by
	// CreateJournal and required by LoadJournal.
	JournalVersion = 1
)

// JournalHeader is the first line of a journal file.
//
//sollint:wire JournalVersion
type JournalHeader struct {
	// Journal is the magic string identifying the file format.
	Journal string `json:"journal"`
	Version int    `json:"version"`
	// Campaign is the campaign name the journal records.
	Campaign string `json:"campaign"`
	// Fingerprint identifies the full run configuration (e.g. a hash
	// of the manifest). Resume refuses a journal whose fingerprint
	// does not match the config it is resuming under.
	Fingerprint string `json:"fingerprint,omitempty"`
}

// journalEntry is one event line. Seq is a write counter starting at
// 0; a gap or repeat marks a corrupt journal.
//
//sollint:wire JournalVersion
type journalEntry struct {
	Seq   int       `json:"seq"`
	Event WaveEvent `json:"event"`
}

// Journal is an open campaign journal in append mode. It is owned by
// a single campaign run at a time; methods are not concurrent-safe.
type Journal struct {
	f   *os.File
	seq int

	// AfterAppend, when set, runs after each entry is durably
	// appended, with the total entry count. Tests and the CLI's
	// -kill-after use it to crash the process at a chosen wave
	// boundary.
	AfterAppend func(entries int)
}

// CreateJournal creates (or truncates) a journal file for a fresh
// campaign run and durably writes its header.
func CreateJournal(path, campaign, fingerprint string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("controlplane: create journal: %w", err)
	}
	hdr, err := json.Marshal(JournalHeader{
		Journal:     journalMagic,
		Version:     JournalVersion,
		Campaign:    campaign,
		Fingerprint: fingerprint,
	})
	if err != nil {
		f.Close()
		return nil, err
	}
	hdr = append(hdr, '\n')
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return nil, fmt.Errorf("controlplane: write journal header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("controlplane: sync journal: %w", err)
	}
	return &Journal{f: f}, nil
}

// Append durably appends one event: the line is written and fsynced
// before Append returns, so a campaign decision is on disk before
// the run acts on it.
func (j *Journal) Append(ev WaveEvent) error {
	line, err := json.Marshal(journalEntry{Seq: j.seq, Event: ev})
	if err != nil {
		return err
	}
	line = append(line, '\n')
	if _, err := j.f.Write(line); err != nil {
		return fmt.Errorf("controlplane: append journal entry %d: %w", j.seq, err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("controlplane: sync journal entry %d: %w", j.seq, err)
	}
	j.seq++
	if j.AfterAppend != nil {
		j.AfterAppend(j.seq)
	}
	return nil
}

// Entries is the number of events durably appended (including any
// replayed prefix a resumed journal was opened with).
func (j *Journal) Entries() int { return j.seq }

// Close closes the journal file.
func (j *Journal) Close() error { return j.f.Close() }

// parseJournal walks the newline-delimited journal. It returns the
// header, the recorded events, and the byte offset of the end of the
// last valid line. A torn tail — trailing bytes with no newline, or
// a final complete line that does not parse — is dropped (that is
// the crash footprint journaling is designed for); a malformed line
// with valid lines after it is corruption and errors.
func parseJournal(data []byte) (JournalHeader, []WaveEvent, int64, error) {
	var hdr JournalHeader
	type line struct {
		data []byte
		end  int64 // offset just past the line's newline
	}
	var lines []line
	off := int64(0)
	for off < int64(len(data)) {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			break // unterminated tail: torn write, ignore
		}
		lines = append(lines, line{data: data[off : off+int64(nl)], end: off + int64(nl) + 1})
		off += int64(nl) + 1
	}
	if len(lines) == 0 {
		return hdr, nil, 0, fmt.Errorf("controlplane: journal is empty")
	}
	dec := json.NewDecoder(bytes.NewReader(lines[0].data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&hdr); err != nil {
		return hdr, nil, 0, fmt.Errorf("controlplane: journal header: %w", err)
	}
	if hdr.Journal != journalMagic {
		return hdr, nil, 0, fmt.Errorf("controlplane: not a campaign journal (magic %q)", hdr.Journal)
	}
	if hdr.Version != JournalVersion {
		return hdr, nil, 0, fmt.Errorf("controlplane: journal version %d, this build reads version %d", hdr.Version, JournalVersion)
	}
	events := make([]WaveEvent, 0, len(lines)-1)
	valid := lines[0].end
	for i, ln := range lines[1:] {
		var e journalEntry
		if err := json.Unmarshal(ln.data, &e); err != nil {
			if i == len(lines)-2 {
				break // torn final line: crash mid-write, drop it
			}
			return hdr, nil, 0, fmt.Errorf("controlplane: journal entry %d corrupt: %w", i, err)
		}
		if e.Seq != len(events) {
			return hdr, nil, 0, fmt.Errorf("controlplane: journal entry %d has seq %d (want %d)", i, e.Seq, len(events))
		}
		events = append(events, e.Event)
		valid = ln.end
	}
	return hdr, events, valid, nil
}

// LoadJournal reads and validates a journal file without opening it
// for append.
func LoadJournal(path string) (JournalHeader, []WaveEvent, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return JournalHeader{}, nil, fmt.Errorf("controlplane: read journal: %w", err)
	}
	hdr, events, _, err := parseJournal(data)
	return hdr, events, err
}

// ResumeJournal opens a journal for resumption: the valid prefix is
// parsed, any torn tail is truncated away, and the returned Journal
// appends after the last valid entry.
func ResumeJournal(path string) (*Journal, JournalHeader, []WaveEvent, error) {
	return resumeJournal(path, nil)
}

// resumeJournal is ResumeJournal with an accept hook: accept, when
// non-nil, judges the parsed header before the file is opened for
// writing, so a journal the caller refuses is left byte-identical —
// torn tail included.
func resumeJournal(path string, accept func(JournalHeader) error) (*Journal, JournalHeader, []WaveEvent, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, JournalHeader{}, nil, fmt.Errorf("controlplane: read journal: %w", err)
	}
	hdr, events, valid, err := parseJournal(data)
	if err == nil && accept != nil {
		err = accept(hdr)
	}
	if err != nil {
		return nil, hdr, nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, hdr, nil, fmt.Errorf("controlplane: open journal: %w", err)
	}
	if err := f.Truncate(valid); err != nil {
		f.Close()
		return nil, hdr, nil, fmt.Errorf("controlplane: truncate torn journal tail: %w", err)
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, hdr, nil, err
	}
	return &Journal{f: f, seq: len(events)}, hdr, events, nil
}

// Resume continues a killed campaign from its journal. The run
// re-simulates from the virtual start — the simulation is
// deterministic, so this reproduces the killed run exactly — and
// verifies each campaign decision against the journal's recorded
// prefix before appending past it. The completed run is byte-identical
// (trace and report) to the same campaign run uninterrupted.
//
// cfg must be the same configuration the journal was recorded under;
// a campaign-name or fingerprint mismatch is refused up front — before
// the journal file is touched — and any behavioral divergence during
// replay aborts the run. fingerprint is compared to the journal
// header's when both are non-empty.
func Resume(cfg Config, path, fingerprint string) (*Report, error) {
	if cfg.Campaign == nil {
		return nil, fmt.Errorf("controlplane: resume requires a campaign")
	}
	j, _, events, err := resumeJournal(path, func(hdr JournalHeader) error {
		if hdr.Campaign != cfg.Campaign.Name {
			return fmt.Errorf("controlplane: journal records campaign %q, config runs %q", hdr.Campaign, cfg.Campaign.Name)
		}
		if fingerprint != "" && hdr.Fingerprint != "" && fingerprint != hdr.Fingerprint {
			return fmt.Errorf("controlplane: journal fingerprint %s does not match configuration fingerprint %s", hdr.Fingerprint, fingerprint)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	defer j.Close()
	cfg.Journal = j
	cfg.Replay = events
	return Run(cfg)
}
