package main

import (
	"errors"
	"math/rand"
	"time"

	"ocasta/internal/faults"
	"ocasta/internal/repair"
	"ocasta/internal/ttkv"
	"ocasta/internal/ttkvwire"
)

const (
	// injectDays is the paper's injection point: 14 days before the end
	// of the machine's trace.
	injectDays = 14
	// injectStagger separates the faults injected on one machine, so a
	// fault's bad writes and its fix never share a co-modification window
	// or the searched history of the next fault (searches start an hour
	// before their injection).
	injectStagger = 2 * time.Hour
	// fixDelay is when, after the injection, the confirmed fix is applied.
	fixDelay = time.Minute
	// pollEvery is the RSTAT poll interval, well below the fastest repairs.
	pollEvery = 500 * time.Microsecond
)

// repairPlan fixes one pass: the machines in an order permuted by the
// seed, and each machine's faults in catalog order. The seed changes
// only which daemon runs when, not the work: a fault's injection time and
// the faults repaired before it on its machine (whose history its search
// reads) are the same for every seed. Every pass of a run uses the same
// plan.
type repairPlan struct {
	machines []repairMachine
	faults   [][]faults.Fault
}

func newRepairPlan(in *repairInput, seed int64) (*repairPlan, error) {
	rng := rand.New(rand.NewSource(seed))
	p := &repairPlan{}
	for _, i := range rng.Perm(len(in.Machines)) {
		m := in.Machines[i]
		var fs []faults.Fault
		for _, id := range m.Faults {
			f, err := faults.ByID(id)
			if err != nil {
				return nil, err
			}
			fs = append(fs, f)
		}
		p.machines = append(p.machines, m)
		p.faults = append(p.faults, fs)
	}
	return p, nil
}

func (p *repairPlan) injectAt(m, j int) time.Time {
	return p.machines[m].End.Add(-injectDays*24*time.Hour + time.Duration(j)*injectStagger)
}

// runRepair runs the paper's recovery loop as a service. A pass starts a
// daemon on each Table I machine behind the Table III faults and, fault
// by fault, writes the catalog's bad values over the wire, submits
// REPAIR (DFS, re-clustering the history), polls RSTAT until done and
// applies RFIX. Every pass repeats the same plan on pristine logs.
func runRepair(e *env) (*result, error) {
	in, err := buildRepairInput(e.cache, e.faultFilter)
	if err != nil {
		return nil, err
	}
	plan, err := newRepairPlan(in, e.seed)
	if err != nil {
		return nil, err
	}
	r := &result{}
	var rs rounds
	var cpuPerOp []float64
	deadline := time.Now().Add(e.seconds)
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		var setup, busy, cpu time.Duration
		var lat latencies
		var peak, base, grown, userBytes int64
		repairs := 0
		for mi, m := range plan.machines {
			b, err := dirBytes(m.LogDir)
			if err != nil {
				return nil, err
			}
			base += b
			d, dir, err := e.start(m.LogDir)
			if err != nil {
				return nil, err
			}
			setup += d.setup()
			_, cpu0, err := d.procStats()
			if err != nil {
				_ = d.stop() // returning the earlier error
				return nil, err
			}
			for j, f := range plan.faults[mi] {
				rep := repairFault(e, d.client(), f, plan.injectAt(mi, j), m.End, r)
				userBytes += rep.userBytes
				busy += rep.latency
				lat = append(lat, rep.latency)
				repairs++
			}
			rss, cpu1, err := d.procStats()
			if err != nil {
				_ = d.stop() // returning the earlier error
				return nil, err
			}
			peak = max(peak, rss)
			cpu += cpu1 - cpu0
			if err := d.stop(); err != nil {
				return nil, err
			}
			g, err := dirBytes(dir)
			if err != nil {
				return nil, err
			}
			grown += g
		}
		// A pass holds 16 repairs: too few for its own percentiles.
		rs.latencies(lat, false)
		rs.setup = append(rs.setup, setup.Seconds())
		rs.throughput = append(rs.throughput, float64(repairs)/busy.Seconds())
		rs.peakRSS = append(rs.peakRSS, float64(peak)/(1<<20))
		rs.logRatio = append(rs.logRatio, float64(grown-base)/float64(userBytes))
		cpuPerOp = append(cpuPerOp, float64(cpu.Microseconds())/float64(repairs))
		e.roundDone()
	}
	rs.report(r)
	e.cpuPerOp = median(cpuPerOp)
	return r, nil
}

// repairOutcome is one fault's repair as the client saw it.
type repairOutcome struct {
	latency   time.Duration // REPAIR sent until RFIX acknowledged
	queued    time.Duration // REPAIR reply until the first RSTAT running/done
	userBytes int64         // key+value bytes of the injected writes
	status    ttkvwire.RepairStatus
}

// repairFault injects f at at, repairs it over the wire, and checks the
// gates: the fix is found, its cluster covers the fault's offending keys,
// RFIX reverts the whole cluster, and afterwards every offending key reads
// its pre-fault value.
//
// In the traced run, the pre-fault reads and the injection are the
// repair workload's plain wire requests: no search runs while they are
// served, so they alone count towards allocations per request.
func repairFault(e *env, c *ttkvwire.Client, f faults.Fault, at, end time.Time, r *result) repairOutcome {
	var out repairOutcome
	offending := f.OffendingKeys()
	before := make(map[string]string, len(offending))
	coWrites := make([]ttkv.Mutation, 0, len(f.CoWrites))
	allocs := e.allocWindow()
	reqs := 0
	for _, k := range offending {
		before[k] = getOrAbsent(c, k, f, r)
		reqs++
	}
	for _, bw := range f.BadWrites {
		var err error
		if bw.Delete {
			err = c.Delete(bw.Key, at)
			out.userBytes += int64(len(bw.Key))
		} else {
			err = c.Set(bw.Key, bw.Value, at)
			out.userBytes += int64(len(bw.Key) + len(bw.Value))
		}
		reqs++
		if err == nil {
			r.pass()
		} else {
			r.check(false, "fault #%d: injecting %s: %v", f.ID, bw.Key, err)
		}
	}
	for _, k := range f.CoWrites {
		v, err := c.GetAt(k, at)
		reqs++
		if err == nil && !v.Deleted {
			err = c.Set(k, v.Value, at)
			out.userBytes += int64(len(k) + len(v.Value))
			coWrites = append(coWrites, ttkv.Mutation{Key: k, Value: v.Value})
			reqs++
		}
		if err == nil {
			r.pass()
		} else {
			r.check(false, "fault #%d: co-writing %s: %v", f.ID, k, err)
		}
	}
	allocs(reqs)
	for _, k := range offending {
		e.recordGet(k)
	}
	for _, bw := range f.BadWrites {
		if !bw.Delete {
			e.recordSet(bw.Key, bw.Value, at)
		}
	}
	for _, m := range coWrites {
		e.recordSet(m.Key, m.Value, at)
	}

	req := ttkvwire.RepairRequest{
		App:          f.Model().Name,
		Trial:        f.TrialActions,
		FixedMarker:  f.FixedMarker,
		BrokenMarker: f.BrokenMarker,
		Strategy:     repair.StrategyDFS,
		Window:       f.Window,
		Threshold:    f.Threshold,
		Start:        at.Add(-time.Hour),
		End:          end,
	}
	e.probeRepair(f, repair.Options{
		Strategy: req.Strategy, Window: req.Window, Threshold: req.Threshold,
		Start: req.Start, End: req.End, Trial: req.Trial,
		Oracle: repair.MarkerOracle(req.FixedMarker, req.BrokenMarker),
	})
	span := e.requestSpan()
	t0 := time.Now()
	id, err := c.RepairSubmit(req)
	var st ttkvwire.RepairStatus
	fixed := 0
	if err == nil {
		replied := time.Now()
		for {
			if st, err = c.RepairStatus(id); err != nil || st.Finished() {
				break
			}
			if out.queued == 0 && st.State == ttkvwire.JobRunning {
				out.queued = time.Since(replied)
			}
			time.Sleep(pollEvery)
		}
		if out.queued == 0 {
			out.queued = time.Since(replied)
		}
		if err == nil && st.Found {
			fixed, err = c.RepairFix(id, at.Add(fixDelay))
		}
	}
	out.latency = time.Since(t0)
	e.requestDone(span)
	out.status = st
	r.check(err == nil && st.State == ttkvwire.JobDone && st.Found,
		"fault #%d: repair not found (state %s, err %v %s)", f.ID, st.State, err, st.Err)
	r.check(covers(st.Offending, f.OffendingKeys()),
		"fault #%d: offending cluster %v misses %v", f.ID, st.Offending, f.OffendingKeys())
	r.check(fixed == len(st.Offending),
		"fault #%d: RFIX reverted %d keys, cluster has %d", f.ID, fixed, len(st.Offending))
	for k, want := range before {
		got := getOrAbsent(c, k, f, r)
		e.recordGet(k)
		r.check(got == want, "fault #%d: after RFIX %s = %q, want %q", f.ID, k, got, want)
	}
	e.probeRevert(out, at.Add(fixDelay))
	return out
}

// absent stands for a key that does not exist (or is deleted).
const absent = "\x00absent"

func getOrAbsent(c *ttkvwire.Client, key string, f faults.Fault, r *result) string {
	v, err := c.Get(key)
	switch {
	case errors.Is(err, ttkvwire.ErrNotFound):
		return absent
	case err == nil:
		r.pass()
	default:
		r.check(false, "fault #%d: GET %s: %v", f.ID, key, err)
	}
	return v
}

// covers reports whether set contains every key of sub.
func covers(set, sub []string) bool {
	have := make(map[string]bool, len(set))
	for _, k := range set {
		have[k] = true
	}
	for _, k := range sub {
		if !have[k] {
			return false
		}
	}
	return true
}
