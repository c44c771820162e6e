// Command ttkvbench is the repository's end-to-end benchmark. It drives a
// ttkvd daemon, built from the same checkout and run as its own process,
// over loopback with the wire client, checks every answer, and prints the
// end-to-end metrics of one workload. With -trace 1 it instead assembles
// the daemon in-process from the constructors ttkvd uses, records spans
// around the calls into each layer, and prints per-layer metrics.
//
// Run it from the checkout root through the wrapper, which builds both
// binaries into .bench_build first, with the daemon flags BENCHMARK.json
// states (every flag of requiredDaemonFlags must be set):
//
//	bash ttkvbench/run.sh --daemon-flags "-fsync interval ..." \
//	    --workload logger --seed 1 --seconds 20 --trace 0
//
// Workloads: logger (recording path), ingest (write-only stream into a
// fresh daemon), repair (the 16 Table III faults repaired over the wire).
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"ocasta/internal/faults"
)

// env is one benchmark invocation's settings and scratch space.
type env struct {
	root    string // checkout root
	bin     string // ttkvd binary under test
	flags   []string
	cfg     daemonConfig // flags, parsed
	seed    int64
	seconds time.Duration
	// scale < 1 shrinks the inputs; only the self-test sets it.
	scale float64
	// faultFilter, when set, restricts the repair workload's faults.
	faultFilter func(faults.Fault) bool
	cache       cache
	work        string
	// cpuPerOp is the daemon CPU per unit of work the untraced run
	// measured, reported by the traced run.
	cpuPerOp float64
	// The traced run's span recorder, per-layer accumulators, and the
	// in-process daemon currently running.
	tr     *tracer
	layers *layers
	cur    *inproc
	// probing is set while a traced logger round repairs its probe
	// faults: their requests are not the logger's.
	probing bool
}

var workloads = map[string]func(*env) (*result, error){
	"logger": runLogger,
	"ingest": runIngest,
	"repair": runRepair,
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("ttkvbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "logger, ingest or repair")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 20, "how long to measure")
	traced := fs.Int("trace", 0, "1 runs the traced in-process layout and prints per-layer metrics")
	bin := fs.String("bin", ".bench_build/ttkvd", "ttkvd binary under test")
	daemonFlags := fs.String("daemon-flags", "", "ttkvd flags, space separated (see requiredDaemonFlags)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*workload]; !ok || *seconds < 1 || *traced < 0 || *traced > 1 {
		fmt.Fprintln(os.Stderr, "ttkvbench: need --workload logger|ingest|repair, --seconds >= 1, --trace 0|1")
		return 2
	}
	res, err := benchmark(*workload, *seed, *seconds, *traced == 1, *bin, strings.Fields(*daemonFlags))
	if err != nil {
		fmt.Fprintln(os.Stderr, "ttkvbench:", err)
		return 1
	}
	printResult(res)
	if res.Failed > 0 {
		return 1
	}
	return 0
}

func benchmark(workload string, seed int64, seconds int, traced bool, bin string, flags []string) (*result, error) {
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	if bin, err = filepath.Abs(bin); err != nil {
		return nil, err
	}
	if _, err := os.Stat(bin); err != nil {
		return nil, fmt.Errorf("ttkvd binary: %w", err)
	}
	e, err := newEnv(root, filepath.Join(root, ".bench_build"), bin, flags, seed, time.Duration(seconds)*time.Second)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(e.work)
	// The repair deployments do not depend on the seed and the largest
	// takes minutes to generate, so every run makes sure they exist: the
	// first run in a checkout (which also builds) pays for them.
	if _, err := buildRepairInput(e.cache, nil); err != nil {
		return nil, err
	}
	printFingerprint(e)
	if traced {
		return runTraced(e, workload)
	}
	return workloads[workload](e)
}

// newEnv prepares a run of the checkout at root, keeping its input cache
// and scratch directories under build.
func newEnv(root, build, bin string, flags []string, seed int64, seconds time.Duration) (*env, error) {
	cfg, err := parseDaemonFlags(flags)
	if err != nil {
		return nil, err
	}
	hash, err := sourceHash(root)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(build, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return nil, err
	}
	return &env{
		root:    root,
		bin:     bin,
		flags:   flags,
		cfg:     cfg,
		seed:    seed,
		seconds: seconds,
		scale:   1,
		cache:   cache{dir: filepath.Join(build, "inputs", hash)},
		work:    work,
	}, nil
}

func printResult(r *result) {
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]jm{}}
	for _, m := range r.Metrics {
		fmt.Printf("metric %-34s %16.6f %-6s n=%d\n", m.Name, m.Value, m.Unit, m.N)
		out.Metrics[m.Name] = jm{Value: m.Value, Unit: m.Unit}
	}
	fmt.Printf("metric %-34s %16.6f %-6s n=%d\n", "fail_ratio", float64(r.Failed)/float64(max(r.Attempted, 1)), "1", r.Attempted)
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	fmt.Println(string(b))
}
