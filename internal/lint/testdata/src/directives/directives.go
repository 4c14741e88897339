// Package directives is the gmdirective fixture: well-formed //gm:
// directives stay quiet; unknown names and unjustified escape hatches
// are reported wherever they appear.
package directives

// Leaf carries the no-allocation contract, which takes no reason.
//
//gm:noalloc
func Leaf(x int) int { return x + 1 }

// Grow carries justified escape hatches, trailing and on the line above.
func Grow(xs []int, seen map[int]bool) []int {
	xs = append(xs, 1) //gm:alloc-ok the fixture amortizes nothing, but the reason parses
	//gm:nondeterministic-ok membership only; the order cannot escape
	for k := range seen {
		_ = k
	}
	return xs
}

// want-below `unknown directive //gm:frobnicate`
//gm:frobnicate

// want-below `unknown directive //gm:noaloc`
//gm:noaloc

// want-below `unknown directive //gm:atomic-ok`
//gm:atomic-ok no analyzer reads this name

// want-below `//gm:alloc-ok requires a written justification`
//gm:alloc-ok

// want-below `//gm:nondeterministic-ok requires a written justification`
//gm:nondeterministic-ok

var _ = Grow
