package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

// TestFailPicksPinnedUplink holds the link -fail takes down on the default
// world (seed 42): the uplink of the first single-homed stub.
func TestFailPicksPinnedUplink(t *testing.T) {
	out := runMain(t, "-proto", "plain-dv", "-fail")
	if !strings.Contains(out, "\nfailing link AD3-AD10 ...\n") {
		t.Errorf("prsim -fail did not fail AD3-AD10:\n%s", out)
	}
}

// runMain runs the command once with args and returns what it printed.
func runMain(t *testing.T, args ...string) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout, argv := os.Stdout, os.Args
	os.Stdout, os.Args = f, append([]string{"prsim"}, args...)
	defer func() { os.Stdout, os.Args = stdout, argv }()
	main()
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
