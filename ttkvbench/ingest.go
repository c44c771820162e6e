package main

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"ocasta"
	"ocasta/internal/core"
	"ocasta/internal/trace"
	"ocasta/internal/ttkvwire"
)

// runIngest sends a synthetic co-modification stream to a fresh daemon,
// one pipelined flush per episode on one connection, then checks that
// the daemon's live clustering equals the batch clustering of the events
// sent. Every round starts a fresh daemon on an empty log.
func runIngest(e *env) (*result, error) {
	in, err := buildIngestInput(e.cache, e.seed, e.scale)
	if err != nil {
		return nil, err
	}
	var sent []trace.Event
	for _, ep := range in.Episodes {
		sent = append(sent, ep...)
	}
	want := clusterSet(ocasta.ClusterEvents(sent, ocasta.Config{}))

	r := &result{}
	var rs rounds
	var cpuPerOp []float64
	deadline := time.Now().Add(e.seconds)
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		d, dir, err := e.start("")
		if err != nil {
			return nil, err
		}
		_, cpu0, err := d.procStats()
		if err != nil {
			_ = d.stop() // returning the earlier error
			return nil, err
		}
		lat := make(latencies, 0, len(in.Episodes))
		userBytes, elapsed := sendEpisodes(e, d.client(), in.Episodes, r, &lat)
		peak, cpu1, err := d.procStats()
		if err != nil {
			_ = d.stop() // returning the earlier error
			return nil, err
		}
		got, err := liveClusters(d.client(), sent[len(sent)-1].Time)
		r.check(err == nil && got == want, "ingest round %d: CLUSTERS differs from ClusterEvents over the events sent (err %v)", round, err)
		if err := d.stop(); err != nil {
			return nil, err
		}
		grown, err := dirBytes(dir)
		if err != nil {
			return nil, err
		}
		rs.latencies(lat, len(lat) >= 1000)
		rs.setup = append(rs.setup, d.setup().Seconds())
		rs.throughput = append(rs.throughput, float64(len(sent))/elapsed.Seconds())
		rs.peakRSS = append(rs.peakRSS, float64(peak)/(1<<20))
		rs.logRatio = append(rs.logRatio, float64(grown)/float64(userBytes))
		cpuPerOp = append(cpuPerOp, float64((cpu1-cpu0).Microseconds())/float64(len(sent)))
		e.roundDone()
	}
	rs.report(r)
	e.cpuPerOp = median(cpuPerOp)
	return r, nil
}

// sendEpisodes flushes each episode as one pipeline and returns the
// key+value bytes written and the time the stream took.
func sendEpisodes(e *env, c *ttkvwire.Client, episodes [][]trace.Event, r *result, lat *latencies) (int64, time.Duration) {
	var userBytes int64
	allocs := e.allocWindow()
	t0 := time.Now()
	for i, ep := range episodes {
		span := e.requestSpan()
		s := time.Now()
		p := c.Pipeline()
		for _, ev := range ep {
			p.Set(ev.Key, ev.Value, ev.Time)
			userBytes += int64(len(ev.Key) + len(ev.Value))
		}
		err := p.Flush()
		*lat = append(*lat, time.Since(s))
		e.requestDone(span)
		if err == nil {
			r.pass()
		} else {
			r.check(false, "ingest episode %d: %v", i, err)
		}
	}
	elapsed := time.Since(t0)
	allocs(len(episodes))
	for _, ep := range episodes {
		for _, ev := range ep {
			e.recordSet(ev.Key, ev.Value, ev.Time)
		}
	}
	return userBytes, elapsed
}

// sentinelKey closes the stream's last co-modification window. The
// analytics engine windows an event only once a later one has moved the
// watermark a reorder horizon past it, and closes a window only when an
// event outside it is windowed. So two sentinel writes, an hour and two
// hours after the last episode, close every window of the stream; the
// first sentinel's own window stays open, so it never appears in the
// clustering.
const sentinelKey = "ttkvbench/sentinel"

// liveClusters writes the sentinels, waits for two recluster publishes
// after them (the first may have drained before they arrived), and
// returns the daemon's clustering in clusterSet form.
func liveClusters(c *ttkvwire.Client, last time.Time) (string, error) {
	for h := time.Duration(1); h <= 2; h++ {
		if err := c.Set(sentinelKey, "x", last.Add(h*time.Hour)); err != nil {
			return "", err
		}
	}
	snap, err := c.Clusters(0)
	if err != nil {
		return "", err
	}
	want := snap.Version + 2
	deadline := time.Now().Add(30 * time.Second)
	for snap.Version < want {
		if time.Now().After(deadline) {
			return "", fmt.Errorf("no recluster publish within 30s")
		}
		time.Sleep(20 * time.Millisecond)
		if snap, err = c.Clusters(0); err != nil {
			return "", err
		}
	}
	return clusterSet(snap.Clusters), nil
}

// clusterSet renders clusters order-independently: each as its episode
// count and sorted keys, one per line, lines sorted.
func clusterSet(cls []core.Cluster) string {
	lines := make([]string, 0, len(cls))
	for _, cl := range cls {
		keys := slices.Clone(cl.Keys)
		slices.Sort(keys)
		lines = append(lines, fmt.Sprintf("%d %s", cl.ModCount, strings.Join(keys, ",")))
	}
	slices.Sort(lines)
	return strings.Join(lines, "\n")
}
