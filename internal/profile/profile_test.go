package profile

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// TestUnwritableHeapPathDoesNotLoseOtherProfiles: stop used to return at the
// failed heap-profile create, before the block and mutex profiles were
// written.
func TestUnwritableHeapPathDoesNotLoseOtherProfiles(t *testing.T) {
	dir := t.TempDir()
	block, mutex := filepath.Join(dir, "block.pprof"), filepath.Join(dir, "mutex.pprof")
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs)
	err := fs.Parse([]string{
		"-memprofile", filepath.Join(dir, "no-such-dir", "heap.pprof"),
		"-blockprofile", block, "-mutexprofile", mutex,
	})
	if err != nil {
		t.Fatal(err)
	}
	stop, err := f.Start()
	if err != nil {
		t.Fatal(err)
	}
	stop()
	for _, path := range []string{block, mutex} {
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Errorf("%s not written after the heap profile failed: %v", filepath.Base(path), err)
		}
	}
}

func TestStartReportsUnwritableCPUPath(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs)
	if err := fs.Parse([]string{"-cpuprofile", filepath.Join(t.TempDir(), "no-such-dir", "cpu.pprof")}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Start(); err == nil {
		t.Fatal("Start succeeded with an unwritable CPU profile path")
	}
}
