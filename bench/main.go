// Command bench is this repository's benchmark: it starts the real
// route-server stack in-process (topology → policy → synthesis strategy →
// routeserver.Server → daemon.Backend → daemon.Daemon on a TCP loopback
// listener), drives it from a closed-loop generator over internal/wire
// frames, validates every answer, and prints every metric by name with its
// unit. BENCHMARK.json describes it; README.md in this directory says what
// each workload and metric is for.
//
//	go run ./bench -workload hit_sync -seed 42 -seconds 12 -trace 0
//	go run ./bench                      # every workload, untraced
//	go run ./bench -trace 1             # every workload, the per-layer table
//	go run ./bench -repeat 5 -out A.json
//	go run ./bench compare A.json B.json
//
// The last line of standard output of a single-workload run is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. Nothing is written
// anywhere but standard output, -out and -spans.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		name    = flag.String("workload", "", "run one workload alone (default: all six, in order)")
		seed    = flag.Int64("seed", 42, "seed of the request tape's order")
		seconds = flag.Int("seconds", 12, "length of the timed phase of each workload")
		trace   = flag.Int("trace", 0, "1: the traced run, which prints the per-layer metrics instead of the end-to-end ones")
		spans   = flag.String("spans", "", "with -trace 1 and one workload: write the spans to this file, one JSON object a line")
		repeat  = flag.Int("repeat", 1, "run the selection this many times, seed, seed+1, ...; with -out, the set compare reads")
		out     = flag.String("out", "", "write the results of every run to this file as JSON")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: bench [-workload name] [-seed n] [-seconds n] [-trace 0|1] [-repeat n] [-out file] | bench compare A.json B.json")
		os.Exit(2)
	}
	selected := workloads
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		selected = []workload{w}
	}

	hdr := header(*seed, *seconds)
	fmt.Println(hdr.String())
	set := resultSet{Header: hdr}
	ok := true
	// One workload, once, runs here. A selection of several runs each in a
	// process of its own — this program, as the driver runs it — so that
	// the runs of a set share nothing: not a warm cache, not a grown heap,
	// not the runtime's pool of dead goroutines. That is what makes
	// -workload <name> print the numbers the full set prints for it.
	alone := len(selected) == 1 && *repeat == 1
	for r := 0; r < *repeat; r++ {
		for _, w := range selected {
			var res result
			if alone {
				res = runWorkload(w, runConfig{
					seed:    *seed,
					measure: time.Duration(*seconds) * time.Second,
					trace:   *trace == 1,
					spans:   *spans,
					sz:      fullSizing(),
				})
				for _, p := range res.problems {
					fmt.Fprintf(os.Stderr, "bench: %s: %s\n", w.name, p)
				}
			} else {
				var err error
				if res, err = runChild(w, *seed+int64(r), *seconds, *trace); err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				}
			}
			res.Workload, res.Seed = w.name, *seed+int64(r)
			ok = ok && res.Correct
			set.Runs = append(set.Runs, res)
			printResult(res, *trace == 1)
		}
	}
	if *out != "" {
		b, err := json.MarshalIndent(set, "", " ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
	}
	if alone {
		// The result line: exactly these four keys, last on standard output.
		r := set.Runs[0]
		line, _ := json.Marshal(struct {
			Correct   bool      `json:"correct"`
			Attempted uint64    `json:"attempted"`
			Failed    uint64    `json:"failed"`
			Metrics   metricSet `json:"metrics"`
		}{r.Correct, r.Attempted, r.Failed, r.Metrics})
		fmt.Println(string(line))
	}
	if !ok {
		os.Exit(1)
	}
}

// runChild runs one workload in a child process and reads its result
// line. A child that failed its checks still prints one (correct: false);
// one that printed none is an error.
func runChild(w workload, seed int64, seconds, trace int) (result, error) {
	var res result
	self, err := os.Executable()
	if err != nil {
		return res, err
	}
	cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	last := out[bytes.LastIndexByte(bytes.TrimSpace(out), '\n')+1:]
	if err := json.Unmarshal(last, &res); err != nil {
		return res, fmt.Errorf("no result line (%v): %w", runErr, err)
	}
	return res, nil
}

func runWorkload(w workload, cfg runConfig) result {
	if w.suite {
		return runSuite(w, cfg)
	}
	return runSocket(w, cfg)
}

// runHeader is what every number printed here was measured on.
type runHeader struct {
	Commit     string `json:"commit"`
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Windows    int    `json:"windows"`
	Conns      int    `json:"conns"`
	Transport  string `json:"transport"`
}

func header(seed int64, seconds int) runHeader {
	h := runHeader{
		Commit: "unknown", Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU: runtime.NumCPU(), CPU: "unknown", Seed: seed, Seconds: seconds,
		Windows: fullSizing().windows, Conns: nconns(), Transport: "loopback TCP",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

func (h runHeader) String() string {
	return fmt.Sprintf("# bench: commit %s, %s, GOMAXPROCS %d, nproc %d, cpu %q, seed %d, %d s in %d windows, %d connections over %s",
		h.Commit, h.Go, h.GOMAXPROCS, h.NumCPU, h.CPU, h.Seed, h.Seconds, h.Windows, h.Conns, h.Transport)
}

// printResult prints one run's metrics by name, in declaration order.
func printResult(r result, traced bool) {
	names := endToEnd
	if traced {
		names = perLayer
	}
	fmt.Printf("## %s seed %d: attempted %d, failed %d, correct %v\n", r.Workload, r.Seed, r.Attempted, r.Failed, r.Correct)
	if r.Attempted > 0 {
		fmt.Printf("%-36s %16.4f %s\n", "failed_frac", float64(r.Failed)/float64(r.Attempted), "ratio")
	}
	for _, n := range names {
		if v, ok := r.Metrics[n]; ok {
			fmt.Printf("%-36s %16.4f %s\n", n, v.Value, v.Unit)
		}
	}
}
