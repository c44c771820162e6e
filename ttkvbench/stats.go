package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// metric is one reported number with its unit and sample count.
type metric struct {
	Name  string
	Unit  string
	Value float64
	N     int
}

// result is one run's outcome: every attempted unit of work (request,
// episode flush, repair) and every correctness gate counts in attempted,
// and in failed when it errored or its check failed.
type result struct {
	Attempted int
	Failed    int
	Metrics   []metric
}

// maxLoggedFailures bounds the failures echoed to stderr per run.
const maxLoggedFailures = 10

func (r *result) check(ok bool, format string, args ...any) {
	r.Attempted++
	if ok {
		return
	}
	r.Failed++
	if r.Failed <= maxLoggedFailures {
		fmt.Fprintf(os.Stderr, "ttkvbench: FAIL: "+format+"\n", args...)
	}
}

// pass counts a unit of work whose check passed. Request loops call it,
// and check only on failure, because check's arguments allocate.
func (r *result) pass() { r.Attempted++ }

func (r *result) add(name, unit string, value float64, n int) {
	r.Metrics = append(r.Metrics, metric{Name: name, Unit: unit, Value: value, N: n})
}

// latencies collects per-unit latencies.
type latencies []time.Duration

// quantile returns the q-quantile (nearest rank) in microseconds.
func (l latencies) quantileUS(q float64) float64 {
	if len(l) == 0 {
		return 0
	}
	s := append(latencies(nil), l...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	i = min(max(i, 0), len(s)-1)
	return float64(s[i].Nanoseconds()) / 1e3
}

// median of a sample of per-round values.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

var quantiles = []struct {
	name string
	q    float64
}{{"latency_p50_us", 0.50}, {"latency_p90_us", 0.90}, {"latency_p99_us", 0.99}}

// rounds accumulates the per-round end-to-end figures every workload
// reports; each is reported as the median over the run's rounds.
type rounds struct {
	setup      []float64 // seconds
	throughput []float64 // units per second
	peakRSS    []float64 // MB
	logRatio   []float64 // log growth per user byte
	// Latency percentiles of each round, when a round holds enough
	// samples for its own p99; otherwise the run's latencies are pooled.
	perRound [][]float64
	pooled   latencies
	samples  int
}

// latencies adds one round's latencies.
func (rs *rounds) latencies(lat latencies, perRound bool) {
	rs.samples += len(lat)
	if !perRound {
		rs.pooled = append(rs.pooled, lat...)
		return
	}
	ps := make([]float64, len(quantiles))
	for i, q := range quantiles {
		ps[i] = lat.quantileUS(q.q)
	}
	rs.perRound = append(rs.perRound, ps)
}

func (rs *rounds) report(r *result) {
	n := len(rs.setup)
	r.add("setup_s", "s", median(rs.setup), n)
	r.add("throughput_per_s", "1/s", median(rs.throughput), n)
	for i, q := range quantiles {
		v := rs.pooled.quantileUS(q.q)
		if len(rs.perRound) > 0 {
			col := make([]float64, len(rs.perRound))
			for j, ps := range rs.perRound {
				col[j] = ps[i]
			}
			v = median(col)
		}
		r.add(q.name, "us", v, rs.samples)
	}
	r.add("peak_rss_mb", "MB", median(rs.peakRSS), n)
	r.add("log_bytes_per_user_byte", "B/B", median(rs.logRatio), n)
}
