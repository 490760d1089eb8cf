// Command perfbench is DeepMC's end-to-end benchmark.  It runs one named
// workload under a seed for a fixed time, checks every verdict the
// program returns against an answer that does not come from the code
// under test, and prints as its last line one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones.  With --trace 1
// the run is split into an untraced half and a traced half; the traced
// half records a span around each call the benchmark makes into a
// layer, and the metrics are the per-layer ones.  WORKLOADS.md lists the
// workloads, their op units and the layer -> metric map.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload crash-corpus --seed 0 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// options are the parsed command-line flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// short shrinks every workload's inputs so the benchmark's own
	// tests finish in seconds; measurements are not comparable.
	short bool
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name ("+workloadNames()+")")
	fs.Int64Var(&o.seed, "seed", 0, "input seed (0 reproduces the paper's inputs)")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured time per phase, in seconds")
	fs.IntVar(&trace, "trace", 0, "1 = traced run printing per-layer metrics")
	fs.BoolVar(&o.short, "short", false, "small inputs for the benchmark's own tests")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if o.seconds <= 0 {
		return o, fmt.Errorf("--seconds must be positive")
	}
	o.trace = trace == 1
	return o, nil
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, out io.Writer) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	spec, ok := lookupWorkload(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", o.workload, workloadNames())
	}
	// Load comes from one process with at most nproc client goroutines;
	// the analysis fan-out follows GOMAXPROCS, so cap it the same way.
	procs := runtime.NumCPU()
	if procs > 2 {
		procs = 2
	}
	runtime.GOMAXPROCS(procs)

	var res *result
	var meta map[string]any
	if o.trace {
		res, meta, err = runTraced(spec, o, out)
	} else {
		res, meta, err = runPlain(spec, o)
	}
	if err != nil {
		return err
	}
	meta["workload"] = spec.name
	meta["seed"] = o.seed
	meta["trace"] = o.trace
	meta["short"] = o.short
	for k, v := range buildMeta() {
		meta[k] = v
	}
	if err := printLine(out, "meta: ", meta); err != nil {
		return err
	}
	return printLine(out, "", res)
}

// buildMeta describes the binary and host: the commit comes from the
// build's VCS stamp ("unknown" when built outside a repository).
func buildMeta() map[string]any {
	commit, modified := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
	}
	return map[string]any{
		"commit":     commit,
		"modified":   modified,
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"numcpu":     runtime.NumCPU(),
	}
}

func printLine(out io.Writer, prefix string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s%s\n", prefix, b)
	return err
}
