// Package a exercises the hotalloc analyzer: allocating constructs in
// a //sollint:hotpath function fire; the identical constructs in an
// unmarked function, and the reuse idioms, stay silent.
package a

import "fmt"

type item struct {
	key string
	n   int
}

type engine struct {
	scratch []item
}

// box stands in for any interface-taking helper.
func box(v any) any { return v }

// Poll is hot: each allocating construct fires.
//
//sollint:hotpath
func (e *engine) Poll(items []item) int {
	total := 0
	inc := func() { // want `closure captures total in hot path Poll`
		total++
	}
	inc()
	fmt.Printf("polled %d\n", total) // want `fmt\.Printf in hot path Poll boxes every argument`
	_ = box(total)                   // want `passing int into an interface parameter boxes it in hot path Poll`
	var seen []string
	for _, it := range items {
		seen = append(seen, it.key) // want `append to seen grows an unpreallocated slice in hot path Poll`
	}
	_ = seen
	return total
}

// PollCold is the identical body without the marker: silent.
func (e *engine) PollCold(items []item) int {
	total := 0
	inc := func() {
		total++
	}
	inc()
	fmt.Printf("polled %d\n", total)
	_ = box(total)
	var seen []string
	for _, it := range items {
		seen = append(seen, it.key)
	}
	_ = seen
	return total
}

// Snapshot shows the reuse idioms hotalloc deliberately permits:
// appending to a caller buffer, to a struct field, and to a local
// preallocated to capacity.
//
//sollint:hotpath
func (e *engine) Snapshot(dst []item, src []item) []item {
	dst = dst[:0]
	for _, it := range src {
		dst = append(dst, it)
	}
	e.scratch = append(e.scratch[:0], src...)
	tmp := make([]item, 0, len(src))
	tmp = append(tmp, src...)
	return dst
}

// Keys grows a zero-capacity make: still bare, still flagged.
//
//sollint:hotpath
func Keys(items []item) []string {
	out := make([]string, 0)
	for _, it := range items {
		out = append(out, it.key) // want `append to out grows an unpreallocated slice in hot path Keys`
	}
	return out
}

// Flush carries a justified escape for a once-per-report format.
//
//sollint:hotpath
func Flush(n int) {
	fmt.Println(n) //sollint:allow hotalloc flush runs once per report, off the per-event path
}

// Reset passes untyped nil into an interface parameter: nothing to
// box, silent.
//
//sollint:hotpath
func Reset() {
	_ = box(nil)
}

type reading struct {
	v  float64
	at int
}

type sink interface {
	Observe(*reading)
}

type probe struct {
	corrupt func(*reading)
	out     sink
	scratch reading
}

func settle(r *reading) { r.at++ }

// Collect hands the address of its local to a func value and to an
// interface method: the compiler cannot see the callees, so r lives on
// the heap from its declaration on — every call, hooks installed or
// not. The statically dispatched call keeps r on the stack.
//
//sollint:hotpath
func (p *probe) Collect(v float64) reading {
	r := reading{v: v}
	settle(&r)
	if p.corrupt != nil {
		p.corrupt(&r) // want `address of r passed to a dynamically dispatched call moves it to the heap on every call of hot path Collect`
	}
	if p.out != nil {
		p.out.Observe(&r) // want `address of r passed to a dynamically dispatched call moves it to the heap on every call of hot path Collect`
	}
	return r
}

// CollectGuarded copies inside the branch that makes the dynamic call,
// or hands out the address of a field: r itself never escapes. Silent.
//
//sollint:hotpath
func (p *probe) CollectGuarded(v float64) reading {
	r := reading{v: v}
	if p.corrupt != nil {
		c := r
		p.corrupt(&c)
		return c
	}
	switch {
	case p.out != nil:
		c := r
		p.out.Observe(&c)
		return c
	}
	p.scratch = r
	p.corrupt(&p.scratch)
	return p.scratch
}

// CollectInit copies in the if statement's init clause, which runs
// whether or not the branch does: c escapes on every call.
//
//sollint:hotpath
func (p *probe) CollectInit(v float64) reading {
	r := reading{v: v}
	if c := r; p.corrupt != nil {
		p.corrupt(&c) // want `address of c passed to a dynamically dispatched call moves it to the heap on every call of hot path CollectInit`
		return c
	}
	return r
}

// CollectCold is Collect without the marker: silent.
func (p *probe) CollectCold(v float64) reading {
	r := reading{v: v}
	p.corrupt(&r)
	return r
}
