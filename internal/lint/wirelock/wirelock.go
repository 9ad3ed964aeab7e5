// Package wirelock holds the checked-in field-fingerprint lock for the
// repository's wire types — the structs registered with a
// //sollint:wire directive (the campaign manifest, the fleet report,
// the sol-metrics envelope, the journal lines). Each entry records a
// type's fields in declaration order (name, json wire name, Go type)
// plus the version constant guarding it and that constant's value at
// lock time.
//
// The lock closes the loop the wirestable analyzer needs: a field
// add/rename/retype/reorder is only legal alongside a bump of the
// guarding version constant, and the analyzer can only see the drift
// if it knows what the last released shape was. wirelock.json is that
// memory. It is regenerated — never hand-edited — with
//
//	go run ./cmd/sollint -wirelock -update
//
// and CI runs `go run ./cmd/sollint -wirelock` to fail the build when
// the file is stale or tampered with. Marshal is deterministic (types
// sorted by name, fields in declaration order, fixed indentation), so
// regenerating an unchanged tree is byte-identical.
package wirelock

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"sort"
)

const (
	// Schema is the lock file's magic schema string.
	Schema = "sol-wirelock"
	// FormatVersion is the version of the lock file's own shape (not
	// of the types it locks).
	FormatVersion = 1
)

// Field is one serialized field of a locked wire struct.
type Field struct {
	// Name is the Go field name.
	Name string `json:"name"`
	// JSON is the wire name the field serializes under.
	JSON string `json:"json"`
	// Type is the field's Go type, package-qualified for foreign
	// packages ("sol/internal/obs.Profile", "time.Duration").
	Type string `json:"type"`
}

// Type is one locked wire struct: its qualified name, the version
// constant guarding it, that constant's value at lock time, and the
// fields in declaration order — declaration order is wire order for
// encoding/json, so reorders are drift too.
type Type struct {
	// Name is "<import path>.<type name>", e.g.
	// "sol/internal/fleet.reportJSON".
	Name string `json:"type"`
	// Guard names the version constant (in the type's own package)
	// that must be bumped when the fingerprint changes.
	Guard string `json:"guard"`
	// GuardValue is the guard constant's value when the lock was
	// written. The wirestable analyzer treats fingerprint drift with an
	// unchanged guard value as the finding.
	GuardValue int64 `json:"guard_value"`
	// Fields are the serialized fields in declaration order.
	Fields []Field `json:"fields"`
}

// File is the whole lock.
type File struct {
	Schema  string `json:"schema"`
	Version int    `json:"version"`
	Types   []Type `json:"types"`
}

//go:embed wirelock.json
var embedded []byte

// Embedded returns the raw lock bytes compiled into this binary.
func Embedded() []byte { return embedded }

// Current parses the lock compiled into this binary.
func Current() (*File, error) { return Parse(embedded) }

// Parse decodes and validates lock bytes.
func Parse(data []byte) (*File, error) {
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("wirelock: %w", err)
	}
	if f.Schema != Schema {
		return nil, fmt.Errorf("wirelock: schema %q, want %q", f.Schema, Schema)
	}
	if f.Version != FormatVersion {
		return nil, fmt.Errorf("wirelock: format version %d, want %d", f.Version, FormatVersion)
	}
	return &f, nil
}

// Lookup returns the locked entry for the qualified type name, or nil.
func (f *File) Lookup(name string) *Type {
	for i := range f.Types {
		if f.Types[i].Name == name {
			return &f.Types[i]
		}
	}
	return nil
}

// Marshal renders the lock deterministically: schema header first,
// types sorted by qualified name, two-space indentation, trailing
// newline. Regenerating an unchanged tree yields byte-identical output
// (tested), which is what lets CI compare the regenerated lock against
// the checked-in file with bytes.Equal.
func (f *File) Marshal() ([]byte, error) {
	out := File{Schema: Schema, Version: FormatVersion, Types: append([]Type(nil), f.Types...)}
	sort.Slice(out.Types, func(i, j int) bool { return out.Types[i].Name < out.Types[j].Name })
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	if err := enc.Encode(out); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
