package main

import (
	"errors"
	"time"

	"ocasta/internal/faults"
	"ocasta/internal/ttkvwire"
)

// runLogger replays the last day of a Windows 7 deployment's logger
// traffic, the way logger.RemoteSink sends it (one GET per configuration
// read, one SET per write, trace timestamps), in a closed loop on one
// connection against a daemon started on the deployment's earlier
// history. Every round starts a fresh daemon on a pristine copy of the
// log and replays the same requests.
func runLogger(e *env) (*result, error) {
	in, err := buildLoggerInput(e.cache, e.seed, e.scale)
	if err != nil {
		return nil, err
	}
	r := &result{}
	var rs rounds
	var cpuPerOp []float64
	deadline := time.Now().Add(e.seconds)
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		base, err := dirBytes(in.LogDir)
		if err != nil {
			return nil, err
		}
		d, dir, err := e.start(in.LogDir)
		if err != nil {
			return nil, err
		}
		_, cpu0, err := d.procStats()
		if err != nil {
			_ = d.stop() // returning the earlier error
			return nil, err
		}
		lat := make(latencies, 0, len(in.Ops))
		ops, userBytes, elapsed := replayLogger(e, d.client(), in.Ops, r, &lat)
		if e.tr != nil {
			probeWindows7(e, d.client(), in.End, r)
		}
		peak, cpu1, err := d.procStats()
		if err != nil {
			_ = d.stop() // returning the earlier error
			return nil, err
		}
		if err := d.stop(); err != nil {
			return nil, err
		}
		grown, err := dirBytes(dir)
		if err != nil {
			return nil, err
		}
		rs.latencies(lat, true)
		rs.setup = append(rs.setup, d.setup().Seconds())
		rs.throughput = append(rs.throughput, float64(ops)/elapsed.Seconds())
		rs.peakRSS = append(rs.peakRSS, float64(peak)/(1<<20))
		rs.logRatio = append(rs.logRatio, float64(grown-base)/float64(userBytes))
		cpuPerOp = append(cpuPerOp, float64((cpu1-cpu0).Microseconds())/float64(ops))
		e.roundDone()
	}
	rs.report(r)
	e.cpuPerOp = median(cpuPerOp)
	return r, nil
}

// errStale marks a GET whose reply differs from the trace's value.
var errStale = errors.New("GET returned a value other than the trace's current one")

// replayLogger sends ops on c, checking every GET against the trace, and
// returns the requests sent, the key+value bytes written, and the time
// the replay took. The loop itself allocates nothing on the harness's
// side, so the traced run's allocation count is the wire's and daemon's.
func replayLogger(e *env, c *ttkvwire.Client, ops []loggerOp, r *result, lat *latencies) (int, int64, time.Duration) {
	var userBytes int64
	allocs := e.allocWindow()
	t0 := time.Now()
	for i := range ops {
		op := &ops[i]
		span := e.requestSpan()
		s := time.Now()
		var err error
		if op.Set {
			err = c.Set(op.Key, op.Value, time.Unix(0, op.Nanos))
			userBytes += int64(len(op.Key) + len(op.Value))
		} else {
			var v string
			if v, err = c.Get(op.Key); err == nil && v != op.Value {
				err = errStale
			}
		}
		*lat = append(*lat, time.Since(s))
		e.requestDone(span)
		if err == nil {
			r.pass()
		} else {
			r.check(false, "logger op %d (%s): %v", i, op.Key, err)
		}
	}
	elapsed := time.Since(t0)
	allocs(len(ops))
	for i := range ops {
		if op := &ops[i]; op.Set {
			e.recordSet(op.Key, op.Value, time.Unix(0, op.Nanos))
		} else {
			e.recordGet(op.Key)
		}
	}
	return len(ops), userBytes, elapsed
}

// probeWindows7 ends a traced logger round by repairing the catalog's
// Windows 7 faults on the replayed deployment, the way the repair
// workload does, so the repair layers have samples on this workload too.
// Their latencies are not part of the logger's figures.
func probeWindows7(e *env, c *ttkvwire.Client, end time.Time, r *result) {
	e.probing = true
	defer func() { e.probing = false }()
	j := 0
	for _, f := range faults.Catalog() {
		if f.TraceName != loggerMachine {
			continue
		}
		at := end.Add(-injectDays*24*time.Hour + time.Duration(j)*injectStagger)
		repairFault(e, c, f, at, end, r)
		j++
	}
}
