// Package fx is the gate's fixture: each declaration below is either a
// defect TestGateFixture wants reported or a case it wants exempt.
package fx

import "io"

// Shape is an interface the fixture declares.
type Shape interface{ Area() int }

// Square satisfies Shape.
type Square struct{ Side int }

// Area is reached only through Shape: exempt.
func (s Square) Area() int { return s.Side * s.Side }

// Perimeter satisfies no interface and has no caller: reported.
func (s Square) Perimeter() int { return 4 * s.Side }

// Box is generic; app calls Get only on an instantiation: exempt.
type Box[T any] struct{ v T }

// NewBox returns a box holding v.
func NewBox[T any](v T) *Box[T] { return &Box[T]{v: v} }

// Get returns the boxed value.
func (b *Box[T]) Get() T { return b.v }

// Name has a String method, which fmt reaches: exempt.
type Name string

func (n Name) String() string { return string(n) }

// Src satisfies io.Reader, an interface app names only through the
// signature of io.ReadAll: exempt.
type Src struct{}

func (Src) Read(p []byte) (int, error) { return 0, io.EOF }

// Used has a caller in app; surface.txt lists it anyway: reported stale.
func Used() {}

// Unused has no caller outside a test file: reported.
func Unused() {}

// unused is unexported and has no caller: reported.
func unused() {}

// Loop calls only itself: reported.
func Loop(n int) int {
	if n == 0 {
		return 0
	}
	return Loop(n - 1)
}

// Spare has no caller; surface.txt gives it an unknown reason: reported.
func Spare() {}
