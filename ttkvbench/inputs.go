package main

import (
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"ocasta/internal/faults"
	"ocasta/internal/trace"
	"ocasta/internal/ttkv"
	"ocasta/internal/workload"
)

// Inputs are generated once per seed and kept under the cache directory,
// keyed by a hash of the generator sources (the deployment generator, the
// fault catalog, the application models, and the log format they are
// written in), so a change to any of them regenerates instead of reusing
// stale inputs.
var inputSources = []string{
	"internal/workload", "internal/faults", "internal/apps",
	"internal/trace", "internal/ttkv", "ttkvbench/inputs.go",
}

// sourceHash hashes every Go source file of inputSources, relative to the
// checkout root.
func sourceHash(root string) (string, error) {
	h := sha256.New()
	for _, src := range inputSources {
		path := filepath.Join(root, src)
		st, err := os.Stat(path)
		if err != nil {
			return "", fmt.Errorf("hashing inputs: %w", err)
		}
		files := []string{path}
		if st.IsDir() {
			ents, err := os.ReadDir(path)
			if err != nil {
				return "", fmt.Errorf("hashing inputs: %w", err)
			}
			files = files[:0]
			for _, e := range ents {
				if strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
					files = append(files, filepath.Join(path, e.Name()))
				}
			}
			sort.Strings(files)
		}
		for _, f := range files {
			b, err := os.ReadFile(f)
			if err != nil {
				return "", fmt.Errorf("hashing inputs: %w", err)
			}
			fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f[len(root):]), len(b))
			h.Write(b)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// cache is the input cache rooted at one source hash.
type cache struct{ dir string }

// cached returns the directory for name, building it with build into a
// temporary sibling first when it does not exist yet, so an interrupted
// build never leaves a half-written entry behind.
func (c cache) cached(name string, build func(dir string) error) (string, error) {
	dir := filepath.Join(c.dir, name)
	if _, err := os.Stat(dir); err == nil {
		return dir, nil
	}
	tmp := dir + ".tmp"
	if err := os.RemoveAll(tmp); err != nil {
		return "", err
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return "", err
	}
	if err := build(tmp); err != nil {
		_ = os.RemoveAll(tmp) // reporting the build error
		return "", fmt.Errorf("building input %s: %w", name, err)
	}
	if err := os.Rename(tmp, dir); err != nil {
		return "", err
	}
	return dir, nil
}

func writeGob(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := gob.NewEncoder(f).Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readGob(path string, v any) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return gob.NewDecoder(f).Decode(v)
}

// writeLog writes events, in order, into a fresh segmented log at dir
// through the same group-commit appender ttkvd uses.
func writeLog(dir string, events []trace.Event) error {
	sa, err := ttkv.OpenSegmented(dir, ttkv.SegmentedConfig{})
	if err != nil {
		return err
	}
	gc := ttkv.NewGroupCommit(sa, ttkv.GroupCommitConfig{Fsync: ttkv.FsyncNever})
	store := ttkv.New()
	store.AttachGroupCommit(gc)
	muts := make([]ttkv.Mutation, 0, 4096)
	for i, ev := range events {
		muts = append(muts, ttkv.Mutation{Key: ev.Key, Value: ev.Value, Time: ev.Time, Delete: ev.Op == trace.OpDelete})
		if len(muts) == cap(muts) || i == len(events)-1 {
			if _, err := store.Apply(muts); err != nil {
				_ = gc.Close() // returning the apply error
				return err
			}
			muts = muts[:0]
		}
	}
	return gc.Close()
}

// copyDir copies the regular files of src into a fresh dst.
func copyDir(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// dirBytes is the total size of the regular files in dir.
func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n, nil
}

// --- logger ---

// loggerOp is one request of the logger replay: a SET of a trace write,
// or a GET of a configuration read with the value the trace holds for the
// key at that point.
type loggerOp struct {
	Set   bool
	Key   string
	Value string // the SET's value, or the GET's expected value
	Nanos int64  // SET timestamp
}

// loggerInput is the Table I Windows 7 deployment cut before its last
// replayDays: the log holds the history before the cut, Ops the traffic
// after it.
type loggerInput struct {
	LogDir string
	End    time.Time // the trace's last write
	Ops    []loggerOp
	Keys   int // keys in the log
	Writes int // SETs in Ops
}

// loggerBase is the seed-independent part of the logger input.
type loggerBase struct {
	After []trace.Event     // the writes after the cut, in trace order
	State map[string]string // every key's value at the cut
	Ratio float64           // the deployment's reads per write
}

const (
	loggerMachine = "Windows 7"
	replayDays    = 1
)

// buildLoggerInput generates the deployment once (scaled by scale; the
// self-test shrinks it) and the seed's request stream: the trace's writes
// after the cut, each preceded by GETs drawn uniformly over the keys
// holding a value, at the deployment's reads-per-write ratio.
func buildLoggerInput(c cache, seed int64, scale float64) (*loggerInput, error) {
	baseDir, err := c.cached(fmt.Sprintf("logger-x%g", scale), func(dir string) error {
		p, _ := workload.ProfileByName(loggerMachine)
		if scale < 1 {
			p.Days = max(replayDays+2, int(float64(p.Days)*scale))
			p.Fill.Keys = max(10, int(float64(p.Fill.Keys)*scale))
		}
		res := workload.Generate(p)
		st := res.Store.Stats()
		evs := res.Trace.Writes()
		_, end, _ := res.Trace.Span()
		cut := end.Add(-replayDays * 24 * time.Hour)
		i := sort.Search(len(evs), func(i int) bool { return !evs[i].Time.Before(cut) })
		if err := writeLog(filepath.Join(dir, "log"), evs[:i]); err != nil {
			return err
		}
		base := loggerBase{After: evs[i:], State: map[string]string{}, Ratio: float64(st.Reads) / float64(st.Writes)}
		for _, ev := range evs[:i] {
			base.State[ev.Key] = ev.Value
		}
		return writeGob(filepath.Join(dir, "base.gob"), &base)
	})
	if err != nil {
		return nil, err
	}
	dir, err := c.cached(fmt.Sprintf("logger-s%d-x%g", seed, scale), func(dir string) error {
		var base loggerBase
		if err := readGob(filepath.Join(baseDir, "base.gob"), &base); err != nil {
			return err
		}
		cur := base.State
		keys := make([]string, 0, len(cur))
		for k := range cur {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		rng := rand.New(rand.NewSource(seed))
		in := loggerInput{Keys: len(keys), Writes: len(base.After), End: base.After[len(base.After)-1].Time}
		for _, ev := range base.After {
			n := int(base.Ratio)
			if rng.Float64() < base.Ratio-float64(n) {
				n++
			}
			for j := 0; j < n; j++ {
				k := keys[rng.Intn(len(keys))]
				in.Ops = append(in.Ops, loggerOp{Key: k, Value: cur[k]})
			}
			in.Ops = append(in.Ops, loggerOp{Set: true, Key: ev.Key, Value: ev.Value, Nanos: ev.Time.UnixNano()})
			if _, ok := cur[ev.Key]; !ok {
				keys = append(keys, ev.Key)
			}
			cur[ev.Key] = ev.Value
		}
		return writeGob(filepath.Join(dir, "ops.gob"), &in)
	})
	if err != nil {
		return nil, err
	}
	var in loggerInput
	if err := readGob(filepath.Join(dir, "ops.gob"), &in); err != nil {
		return nil, err
	}
	in.LogDir = filepath.Join(baseDir, "log")
	return &in, nil
}

// --- ingest ---

// ingestSpec is the synthetic stream: 8 apps x 400 components x 8 keys,
// each episode at its own second.
func ingestSpec(seed int64, scale float64) workload.StreamSpec {
	spec := workload.StreamSpec{Apps: 8, Components: 400, KeysPerComponent: 8, Episodes: 8000, Seed: seed}
	if scale < 1 {
		spec.Components = max(4, int(float64(spec.Components)*scale))
		spec.Episodes = max(40, int(float64(spec.Episodes)*scale))
	}
	return spec
}

// ingestInput is the stream cut into its episodes (one pipelined flush
// each).
type ingestInput struct {
	Episodes [][]trace.Event
	Events   int
}

func buildIngestInput(c cache, seed int64, scale float64) (*ingestInput, error) {
	name := fmt.Sprintf("ingest-s%d-x%g", seed, scale)
	dir, err := c.cached(name, func(dir string) error {
		tr := workload.SyntheticStream(ingestSpec(seed, scale))
		in := ingestInput{Events: len(tr.Events)}
		for i := 0; i < len(tr.Events); {
			j := i + 1
			for j < len(tr.Events) && tr.Events[j].Time.Equal(tr.Events[i].Time) {
				j++
			}
			in.Episodes = append(in.Episodes, tr.Events[i:j])
			i = j
		}
		return writeGob(filepath.Join(dir, "stream.gob"), &in)
	})
	if err != nil {
		return nil, err
	}
	var in ingestInput
	if err := readGob(filepath.Join(dir, "stream.gob"), &in); err != nil {
		return nil, err
	}
	return &in, nil
}

// --- repair ---

// repairMachine is one Table I deployment behind Table III faults.
type repairMachine struct {
	Name   string
	LogDir string
	End    time.Time // trace end; faults inject injectDays before it
	Faults []int
}

// repairInput lists the machines in catalog order. The deployments are
// the paper's Table I machines with their fixed generator seeds (the
// catalog's faults are defined against them); the benchmark seed orders
// machines and faults instead.
type repairInput struct {
	Machines []repairMachine
}

func buildRepairInput(c cache, only func(faults.Fault) bool) (*repairInput, error) {
	var in repairInput
	byName := map[string]int{}
	for _, f := range faults.Catalog() {
		if only != nil && !only(f) {
			continue
		}
		i, ok := byName[f.TraceName]
		if !ok {
			i = len(in.Machines)
			byName[f.TraceName] = i
			in.Machines = append(in.Machines, repairMachine{Name: f.TraceName})
		}
		in.Machines[i].Faults = append(in.Machines[i].Faults, f.ID)
	}
	for i := range in.Machines {
		m := &in.Machines[i]
		slug := strings.NewReplacer(" ", "_").Replace(m.Name)
		dir, err := c.cached("repair-"+slug, func(dir string) error {
			p, ok := workload.ProfileByName(m.Name)
			if !ok {
				return fmt.Errorf("unknown machine %q", m.Name)
			}
			res := workload.Generate(p)
			_, end, _ := res.Trace.Span()
			if err := writeLog(filepath.Join(dir, "log"), res.Trace.Writes()); err != nil {
				return err
			}
			return writeGob(filepath.Join(dir, "end.gob"), end)
		})
		if err != nil {
			return nil, err
		}
		if err := readGob(filepath.Join(dir, "end.gob"), &m.End); err != nil {
			return nil, err
		}
		m.LogDir = filepath.Join(dir, "log")
	}
	return &in, nil
}
