package main

import (
	"io"
	"os"
	"testing"
)

// TestOutputPinned holds the example's report. Every row's failure columns
// follow from the link the example fails, the uplink of the internet's first
// single-homed stub, so a change of victim moves them.
func TestOutputPinned(t *testing.T) {
	const want = `protocol                      init-msgs      init-time    fail-msgs  reconverge-time
plain-dv (split horizon)            226      0.046432s           38        0.043190s
plain-dv (no split horizon)         326      0.046432s         2266        0.259350s
ecma (partial ordering)             164      0.043526s           43        0.043190s
ecma (ordering disabled)            214      0.043526s         4616        0.616384s
ls-hop-by-hop                       294      0.028576s           20        0.027336s
orwg                                294      0.028576s           20        0.027336s
`
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	defer func() { os.Stdout = stdout }()
	main()
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Errorf("convergence printed\n%s\nwant\n%s", got, want)
	}
}
