// Command flowbench is distflow's benchmark: it runs the workloads of
// BENCHMARK.json, checks every answer, and prints the end-to-end
// metrics (untraced) or the per-layer metrics (traced), each by name
// and unit, ending with one JSON line:
//
//	bash flowbench/run.sh --workload gnp-cold --seed 3 --seconds 30 --trace 0
//	bash flowbench/run.sh --workload all --trace 1
//
// Graphs and pairs come from fixed pools; --seed draws the order the
// closed loops send their pairs in and the serving plan's request mix
// and update batches. The library receives only the generated inputs. The command exits non-zero when any correctness check fails.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Seeds: the default, and a held-out one kept for confirming a claimed
// change on inputs it was not tuned on.
const (
	defaultSeed = 3
	heldOutSeed = 11
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("flowbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "all", "workload name, or all")
	seed := fl.Int64("seed", defaultSeed, fmt.Sprintf("workload seed (held-out seed: %d)", heldOutSeed))
	seconds := fl.Float64("seconds", runSeconds, "measured seconds per workload")
	trace := fl.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	spans := fl.String("spans", filepath.Join(".bench_build", "spans"), "directory the traced run writes its spans to")
	describe := fl.Bool("describe", false, "print the BENCHMARK.json these definitions imply and exit")
	spec := fl.Bool("spec", false, "print the definitions part of flowbench/spec.json and exit")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *describe {
		fmt.Fprintln(stdout, benchmarkJSON())
		return 0
	}
	if *spec {
		fmt.Fprintln(stdout, specDefinitions())
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "--trace must be 0 or 1\n")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(stderr, "--seconds must be positive\n")
		return 2
	}
	var ws []Workload
	if *name == "all" {
		ws = workloads
	} else if w, ok := workloadByName(*name); ok {
		ws = []Workload{w}
	} else {
		fmt.Fprintf(stderr, "unknown workload %q (have %s, all)\n", *name, workloadNames())
		return 2
	}

	printEnv(stdout)
	var reports []*Report
	for _, w := range ws {
		rep := newReport(w, *seed, *trace == 1)
		if err := runWorkload(w, *seed, *seconds, rep); err != nil {
			rep.Tally.Check(err)
		}
		if rep.Traced {
			fillLayers(rep, w)
			if len(rep.Spans) > 0 {
				path := filepath.Join(*spans, fmt.Sprintf("%s-seed%d.jsonl", w.Name, *seed))
				if err := writeSpans(path, rep.Spans); err != nil {
					rep.Tally.Check(fmt.Errorf("writing spans: %w", err))
				} else {
					rep.note("%d spans written to %s", len(rep.Spans), path)
				}
			}
		}
		if miss := rep.missing(); len(miss) > 0 {
			rep.Tally.Check(fmt.Errorf("metrics not measured: %s", strings.Join(miss, ", ")))
		}
		rep.print(stdout)
		reports = append(reports, rep)
	}
	res := result(reports)
	fmt.Fprintln(stdout, res.JSON())
	if !res.Correct {
		return 1
	}
	return 0
}

func runWorkload(w Workload, seed int64, seconds float64, rep *Report) error {
	switch {
	case w.Serve && rep.Traced:
		return runServeTraced(w, seed, seconds, rep)
	case w.Serve:
		return runServe(w, seed, seconds, rep)
	case rep.Traced:
		return runClosedTraced(w, seed, seconds, rep)
	default:
		return runClosed(w, seed, seconds, rep)
	}
}

// fillLayers reports 0 for the per-layer metrics workload w does not
// exercise, so every traced run prints the full set: the serving ones
// (On serve-mixed alone) on a closed loop. Every other per-layer metric
// must be measured; one left unset is caught as missing.
func fillLayers(rep *Report, w Workload) {
	var zero []string
	for _, d := range perLayer {
		if _, ok := rep.Metrics[d.Name]; !ok && !w.Serve && d.On == "serve-mixed" {
			rep.Metrics[d.Name] = 0
			zero = append(zero, d.Name)
		}
	}
	if len(zero) > 0 {
		rep.note("not exercised here, reported as 0: %s", strings.Join(zero, ", "))
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return strings.Join(names, ", ")
}

// printEnv records the environment of the run.
func printEnv(w io.Writer) {
	fmt.Fprintf(w, "env: GOMAXPROCS=%d NumCPU=%d go=%s os/arch=%s/%s commit=%s\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH, commit())
}

// commit identifies the measured sources: FLOWBENCH_COMMIT (run.sh sets
// it to the git commit when there is one), else a hash of the Go
// sources and module files under the working directory.
func commit() string {
	if c := os.Getenv("FLOWBENCH_COMMIT"); c != "" {
		return c
	}
	var files []string
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return "sources-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
