package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"ocasta/internal/faults"
	"ocasta/internal/ttkv"
)

// TestToyWorkloads runs every workload at toy size against a freshly built
// ttkvd with every correctness gate on, then the traced logger run, and
// checks that each prints every metric BENCHMARK.json lists.
func TestToyWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real daemon")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "ttkvd")
	build := exec.Command("go", "build", "-o", bin, "./cmd/ttkvd")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building ttkvd: %v\n%s", err, out)
	}
	spec := readSpec(t, filepath.Join(root, "BENCHMARK.json"))
	scratch := t.TempDir()
	newToyEnv := func() *env {
		e, err := newEnv(root, scratch, bin, spec.daemonFlags(t), 1, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		e.scale = 0.2
		// The Linux machines' deployments generate in well under a second.
		e.faultFilter = func(f faults.Fault) bool { return strings.HasPrefix(f.TraceName, "Linux") }
		return e
	}
	for _, wl := range []string{"logger", "ingest", "repair"} {
		t.Run(wl, func(t *testing.T) {
			e := newToyEnv()
			defer os.RemoveAll(e.work)
			res, err := workloads[wl](e)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, spec.EndToEnd)
		})
	}
	t.Run("traced", func(t *testing.T) {
		e := newToyEnv()
		defer os.RemoveAll(e.work)
		// Full size: the traced logger run repairs the Windows 7 faults,
		// which are injected 14 days before the end of the deployment.
		e.scale = 1
		e.seconds = 2 * time.Second
		res, err := runTraced(e, "logger")
		if err != nil {
			t.Fatal(err)
		}
		checkResult(t, res, spec.PerLayer)
	})
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchSpec struct {
	Command  []string     `json:"command"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

// daemonFlags returns the --daemon-flags argument of the benchmark's
// command.
func (s benchSpec) daemonFlags(t *testing.T) []string {
	for i, a := range s.Command {
		if a == "--daemon-flags" && i+1 < len(s.Command) {
			return strings.Fields(s.Command[i+1])
		}
	}
	t.Fatal("BENCHMARK.json command has no --daemon-flags")
	return nil
}

func readSpec(t *testing.T, path string) benchSpec {
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// checkResult fails on any failed gate, and unless every listed metric is
// reported, exactly once, with its unit.
func checkResult(t *testing.T, res *result, want []specMetric) {
	t.Helper()
	if res.Attempted == 0 || res.Failed > 0 {
		t.Errorf("attempted %d, failed %d", res.Attempted, res.Failed)
	}
	got := map[string]metric{}
	for _, m := range res.Metrics {
		if _, dup := got[m.Name]; dup {
			t.Errorf("metric %s reported twice", m.Name)
		}
		got[m.Name] = m
	}
	for _, w := range want {
		m, ok := got[w.Name]
		if !ok || m.Unit != w.Unit {
			t.Errorf("metric %s: got %+v, want unit %s", w.Name, m, w.Unit)
		}
	}
	if len(got) != len(want) {
		t.Errorf("reported %d metrics, BENCHMARK.json lists %d", len(got), len(want))
	}
}

// TestParseDaemonFlags checks that the traced run's in-process daemon is
// configured from --daemon-flags and refuses flags it cannot reproduce.
func TestParseDaemonFlags(t *testing.T) {
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	flags := readSpec(t, filepath.Join(root, "BENCHMARK.json")).daemonFlags(t)
	cfg, err := parseDaemonFlags(flags)
	if err != nil {
		t.Fatalf("BENCHMARK.json's flags: %v", err)
	}
	if cfg.advance || cfg.maxSkew != 0 || cfg.window != time.Second || cfg.reclusterEvery != time.Second ||
		cfg.fsyncEvery != 50*time.Millisecond || cfg.repair.Workers != 8 {
		t.Errorf("parsed %+v", cfg)
	}
	if cfg, err := parseDaemonFlags(slices.Concat(flags, []string{"-window=2s", "-fsync=always"})); err != nil || cfg.window != 2*time.Second || cfg.fsync == ttkv.FsyncInterval {
		t.Errorf("-name=value form: %+v, %v", cfg, err)
	}
	for _, bad := range [][]string{
		slices.Concat(flags, []string{"-segment-bytes", "4096"}), // not reproduced in-process
		flags[1:], // drops a required flag
		slices.Concat(flags, []string{"extra"}),
		slices.Concat(flags, []string{"-recluster-interval", "0"}),
	} {
		if _, err := parseDaemonFlags(bad); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}
