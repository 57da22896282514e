package fx

import "testing"

// A test file's references are not production callers.
func TestUnused(t *testing.T) {
	Unused()
	unused()
}
