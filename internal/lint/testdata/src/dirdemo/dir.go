// Package dirdemo exercises the sollintdir meta-analyzer: malformed
// control comments are themselves findings.
package dirdemo

//sollint:allow walltime
const missingJustification = 1

//sollint:allow wallclock typo of a known analyzer name
const unknownName = 2

//sollint:allow maporder a well-formed allow produces no finding
const wellFormed = 3

//sollint:wire
type wireNoConst struct{ A int }

//sollint:wire TwoVersion extra words
type wireTwoArgs struct{ A int }

//sollint:wire SomeVersion
var wireNotAStruct int

//sollint:allow hotalloc a retired analyzer is unknown, so its allows are stale
const retiredName = 4

// A well-formed wire registration produces no finding.

//sollint:wire DirVersion
type wireWellFormed struct{ A int }
