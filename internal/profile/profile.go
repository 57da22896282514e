// Package profile is the pprof plumbing the commands share: four flags
// naming profile files, and one Start that begins collection and returns
// the function that writes them.
package profile

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Flags holds the destinations of the four profiles; an empty path disables
// that profile.
type Flags struct {
	cpu, mem, block, mutex string
}

// Register defines -cpuprofile, -memprofile, -blockprofile and -mutexprofile
// on fs.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.cpu, "cpuprofile", "", "write a pprof CPU profile to this file")
	fs.StringVar(&f.mem, "memprofile", "", "write a pprof heap profile to this file on exit")
	fs.StringVar(&f.block, "blockprofile", "", "write a pprof blocking profile to this file on exit")
	fs.StringVar(&f.mutex, "mutexprofile", "", "write a pprof mutex-contention profile to this file on exit")
	return f
}

// Start begins CPU profiling and enables block/mutex sampling when those
// profiles are requested (they tax the hot path, so they stay off unless
// asked for). The returned stop ends the CPU profile and writes the heap,
// block and mutex snapshots; a snapshot that cannot be written is reported
// on stderr and does not stop the others.
func (f *Flags) Start() (stop func(), err error) {
	var cpuFile *os.File
	if f.cpu != "" {
		cpuFile, err = os.Create(f.cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	if f.block != "" {
		runtime.SetBlockProfileRate(1)
	}
	if f.mutex != "" {
		runtime.SetMutexProfileFraction(1)
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if f.mem != "" {
			runtime.GC() // materialize a settled heap picture
		}
		writeSnapshot("heap", f.mem)
		writeSnapshot("block", f.block)
		writeSnapshot("mutex", f.mutex)
	}, nil
}

func writeSnapshot(name, path string) {
	if path == "" {
		return
	}
	file, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	defer file.Close()
	if err := pprof.Lookup(name).WriteTo(file, 0); err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
}
