package wirelock

import (
	"bytes"
	"strings"
	"testing"
)

// TestMarshalCanonicalizes proves Marshal is deterministic regardless
// of input order: types sort by qualified name, fields keep
// declaration (wire) order, and marshaling twice is byte-identical.
func TestMarshalCanonicalizes(t *testing.T) {
	f := &File{
		Schema:  Schema,
		Version: FormatVersion,
		Types: []Type{
			{Name: "pkgb.Zed", Guard: "ZVersion", GuardValue: 2, Fields: []Field{
				{Name: "B", JSON: "b", Type: "string"},
				{Name: "A", JSON: "a", Type: "int"},
			}},
			{Name: "pkga.Alpha", Guard: "AVersion", GuardValue: 1},
		},
	}
	a, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("marshaling the same lock twice differs")
	}
	if ia, iz := bytes.Index(a, []byte("pkga.Alpha")), bytes.Index(a, []byte("pkgb.Zed")); ia < 0 || iz < 0 || ia > iz {
		t.Fatalf("types not sorted by name:\n%s", a)
	}
	// Field order within a type is wire order, never sorted.
	if ib, ia2 := bytes.Index(a, []byte(`"B"`)), bytes.Index(a, []byte(`"A"`)); ib < 0 || ia2 < 0 || ib > ia2 {
		t.Fatalf("field declaration order not preserved:\n%s", a)
	}
	if !bytes.HasSuffix(a, []byte("\n")) {
		t.Fatal("marshaled lock has no trailing newline")
	}
	// Marshal must not reorder the caller's copy.
	if f.Types[0].Name != "pkgb.Zed" {
		t.Fatal("Marshal mutated its receiver")
	}
}

// TestParseValidates pins the schema/version gate.
func TestParseValidates(t *testing.T) {
	if _, err := Parse([]byte(`{"schema":"not-a-lock","version":1}`)); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("bad schema: err = %v", err)
	}
	if _, err := Parse([]byte(`{"schema":"sol-wirelock","version":99}`)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("bad version: err = %v", err)
	}
	if _, err := Parse([]byte(`{"schema":"sol-wirelock"`)); err == nil {
		t.Fatal("truncated JSON: err = nil")
	}
}

// TestEmbeddedCanonical proves the checked-in wirelock.json is in
// canonical form: parsing and re-marshaling it reproduces the file
// byte for byte, so `sollint -wirelock`'s byte comparison never
// reports formatting-only staleness.
func TestEmbeddedCanonical(t *testing.T) {
	f, err := Current()
	if err != nil {
		t.Fatal(err)
	}
	out, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, Embedded()) {
		t.Fatal("embedded wirelock.json is not canonical — run `go run ./cmd/sollint -wirelock -update`")
	}
}

func TestLookup(t *testing.T) {
	f := &File{Types: []Type{{Name: "p.T", Guard: "V", GuardValue: 1}}}
	if f.Lookup("p.T") == nil || f.Lookup("p.Missing") != nil {
		t.Fatal("Lookup misresolves")
	}
}
