package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCommittedScenarioFiles runs every scenario file shipped in
// scenarios/, catching schema drift between the package and the examples.
func TestCommittedScenarioFiles(t *testing.T) {
	dir := filepath.Join("..", "..", "scenarios")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading %s: %v", dir, err)
	}
	ran := 0
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		ran++
		t.Run(e.Name(), func(t *testing.T) {
			f, err := os.Open(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			sc, err := Load(f)
			if err != nil {
				t.Fatalf("Load: %v", err)
			}
			var out bytes.Buffer
			if err := sc.Run(&out); err != nil {
				t.Fatalf("Run: %v", err)
			}
			if !strings.Contains(out.String(), "initial") {
				t.Errorf("no report produced:\n%s", out.String())
			}
		})
	}
	if ran == 0 {
		t.Fatal("no scenario files found")
	}
}
