package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ocasta/internal/apps"
	"ocasta/internal/core"
	"ocasta/internal/faults"
	"ocasta/internal/repair"
	"ocasta/internal/trace"
	"ocasta/internal/ttkv"
	"ocasta/internal/ttkvwire"
)

// The traced run: the same workload, first against the ttkvd process
// (untraced, for the daemon's CPU per operation and the untraced
// end-to-end figures), then against a daemon assembled in-process from
// the constructors ttkvd uses, with spans recorded around the calls into
// each layer and the layers' own counters read. It reports per-layer
// metrics, the traced end-to-end figures, and the difference.

// span is one timed call into a layer. Spans of one request share ID;
// Parent indexes the span that caused it (-1 for a root). Start and End
// are nanoseconds since the tracer started (End -1 while open).
type span struct {
	Start, End int64
	ID         uint32
	Parent     int32
	Name       spanName
}

// spanName indexes spanNames; spans are kept small because a traced
// logger run records millions.
type spanName uint8

const (
	spanRequest spanName = iota
	spanServer
	spanObserve
	spanReplyWrite
	spanRecluster
	spanReplay
	spanBackfill
)

var spanNames = []string{"request", "server", "observe", "reply_write", "core.recluster", "ttkv.replay", "core.backfill"}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	// The request in flight on the benchmark's one connection, and its
	// root span: server-side spans belong to it.
	reqID   atomic.Uint64
	reqSpan atomic.Int64
	// The server span of the request being dispatched (-1 when idle).
	srvSpan atomic.Int64
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.reqSpan.Store(-1)
	t.srvSpan.Store(-1)
	return t
}

// maxSpans bounds the spans kept in memory (32 MB); later spans are not
// recorded, so self times cover the run's first maxSpans spans.
const maxSpans = 1 << 20

// begin opens a span and returns its index, or -1 once maxSpans are kept.
func (t *tracer) begin(name spanName, id uint64, parent int) int {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) == maxSpans {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, ID: uint32(id), Parent: int32(parent), Start: now, End: -1})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if i < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// request opens the root span of one unit of client work; endRequest
// closes it.
func (t *tracer) request() int {
	id := t.reqID.Add(1)
	i := t.begin(spanRequest, id, -1)
	t.reqSpan.Store(int64(i))
	return i
}

func (t *tracer) endRequest(i int) {
	t.end(i)
	t.reqSpan.Store(-1)
}

// selfTimes sums each span name's self time: its duration minus the part
// its children cover. It also returns how many request spans were kept.
func (t *tracer) selfTimes() (map[string]time.Duration, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]time.Duration{}
	requests := 0
	for i, s := range t.spans {
		if s.End >= 0 {
			out[spanNames[s.Name]] += time.Duration(s.End - s.Start - child[i])
		}
		if s.Name == spanRequest {
			requests++
		}
	}
	return out, requests
}

// maxWrittenSpans bounds the spans file; self times cover every kept span.
const maxWrittenSpans = 200000

// write stores the first spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	t.mu.Lock()
	for _, s := range t.spans[:min(len(t.spans), maxWrittenSpans)] {
		fmt.Fprintf(w, "{\"name\":%q,\"id\":%d,\"parent\":%d,\"start_us\":%.3f,\"end_us\":%.3f}\n",
			spanNames[s.Name], s.ID, s.Parent, float64(s.Start)/1e3, float64(s.End)/1e3)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layers accumulates the traced run's per-layer measurements.
type layers struct {
	mu sync.Mutex
	// Recorded traffic of the last daemon started, for the replays.
	baseLog string
	gets    []string
	sets    []ttkv.Mutation
	store   *ttkv.Store // the last daemon's store, kept after it stops
	// Server-side wire traffic and counters.
	reqBytes, replyBytes             bytes.Buffer
	connWrites, connBytes, readBytes int64
	// Heap allocations of the timed request loops and their requests.
	allocs    uint64
	allocReqs int
	// Store, log and analytics counters summed over daemons.
	fsyncs, logBytes int64
	sealed           int
	replay, backfill time.Duration
	observe          time.Duration
	observes         int64
	recluster        time.Duration
	reclusters       int
	rounds           int
	// Repair probes.
	queued, clusters, search, revert time.Duration
	trials, screenshots, repairs     int
	render                           time.Duration
	renders                          int64
}

// maxRecordedWire bounds the wire bytes kept, each way, for the
// decode/encode replay (about 130k logger requests).
const maxRecordedWire = 8 << 20

// tracedConn wraps the daemon side of a connection: it opens the server
// span when a request's bytes arrive, closes it when the reply is
// written, times the write, and records the bytes.
type tracedConn struct {
	net.Conn
	e *env
}

func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		tr := c.e.tr
		if tr.srvSpan.Load() < 0 {
			tr.srvSpan.Store(int64(tr.begin(spanServer, tr.reqID.Load(), int(tr.reqSpan.Load()))))
		}
		l := c.e.layers
		l.mu.Lock()
		l.readBytes += int64(n)
		if l.reqBytes.Len() < maxRecordedWire {
			l.reqBytes.Write(p[:n])
		}
		l.mu.Unlock()
	}
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	tr := c.e.tr
	if i := tr.srvSpan.Swap(-1); i >= 0 {
		tr.end(int(i))
	}
	i := tr.begin(spanReplyWrite, tr.reqID.Load(), int(tr.reqSpan.Load()))
	n, err := c.Conn.Write(p)
	tr.end(i)
	l := c.e.layers
	l.mu.Lock()
	l.connWrites++
	l.connBytes += int64(n)
	if l.replyBytes.Len() < maxRecordedWire {
		l.replyBytes.Write(p[:n])
	}
	l.mu.Unlock()
	return n, err
}

type tracedListener struct {
	net.Listener
	e *env
}

func (l tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: c, e: l.e}, nil
}

// tracedObserver times the analytics engine's write hook.
type tracedObserver struct {
	eng *core.Engine
	e   *env
}

func (o tracedObserver) ObserveWrite(key string, t time.Time, deleted bool) {
	tr := o.e.tr
	i := tr.begin(spanObserve, tr.reqID.Load(), int(tr.srvSpan.Load()))
	s := time.Now()
	o.eng.ObserveWrite(key, t, deleted)
	d := time.Since(s)
	tr.end(i)
	l := o.e.layers
	l.mu.Lock()
	l.observe += d
	l.observes++
	l.mu.Unlock()
}

// inproc is ttkvd's -aof-dir primary assembled in-process, configured
// from the run's parsed --daemon-flags. What those flags leave out takes
// ttkvd's defaults, which are library constants: the reorder horizon, the
// shard count and the segment size.
type inproc struct {
	e         *env
	store     *ttkv.Store
	engine    *core.Engine
	sa        *ttkv.SegmentedAOF
	gc        *ttkv.GroupCommit
	srv       *ttkvwire.Server
	conn      *ttkvwire.Client
	served    chan error
	tick      chan struct{}
	ticked    sync.WaitGroup
	setupTime time.Duration
	seg0      ttkv.SegmentedStats
}

// startInproc assembles the daemon on logDir, a copy of pristine (empty
// for a fresh log), which the store replay later reloads.
func startInproc(e *env, logDir, pristine string) (*inproc, error) {
	l := e.layers
	start := time.Now()
	d := &inproc{e: e, store: ttkv.NewSharded(ttkv.DefaultShards), tick: make(chan struct{}), served: make(chan error, 1)}
	cfg := e.cfg
	window := cfg.window
	if window == 0 {
		window = -1 // EngineConfig: negative selects the zero-second window
	}
	d.engine = core.NewEngine(core.EngineConfig{Window: window, Horizon: trace.DefaultHorizon, MaxFutureSkew: cfg.maxSkew})
	i := e.tr.begin(spanReplay, 0, -1)
	sa, err := ttkv.OpenSegmentedInto(logDir, d.store, ttkv.SegmentedConfig{})
	e.tr.end(i)
	if err != nil {
		return nil, err
	}
	replayed := time.Since(start)
	i = e.tr.begin(spanBackfill, 0, -1)
	d.store.ObserveHistory(d.engine)
	d.store.SetStatsObserver(tracedObserver{eng: d.engine, e: e})
	d.engine.AdvanceTo(time.Now())
	d.engine.Recluster()
	e.tr.end(i)
	backfill := time.Since(start) - replayed
	d.sa = sa
	d.gc = ttkv.NewGroupCommit(sa, ttkv.GroupCommitConfig{FlushInterval: cfg.fsyncEvery, Fsync: cfg.fsync})
	rl := ttkv.NewReplLog(d.gc)
	if err := d.store.AttachReplLog(rl); err != nil {
		_ = d.gc.Close() // returning the attach error
		return nil, err
	}
	d.srv = ttkvwire.NewServer(d.store)
	d.srv.SetRepair(cfg.repair)
	d.srv.EnableReplication(rl, ttkvwire.ReplicationConfig{Segments: sa})
	d.srv.SetAnalytics(d.engine)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = d.gc.Close() // returning the listen error
		return nil, err
	}
	go func() { d.served <- d.srv.Serve(tracedListener{Listener: ln, e: e}) }()
	d.ticked.Add(1)
	go d.reclusterLoop()
	if d.conn, err = ttkvwire.Dial(ln.Addr().String()); err == nil {
		err = d.conn.Ping()
	}
	if err != nil {
		_ = d.stop() // returning the dial error
		return nil, err
	}
	d.setupTime = time.Since(start)
	d.seg0 = sa.Stats()
	e.cur = d
	l.mu.Lock()
	l.baseLog, l.gets, l.sets = pristine, nil, nil
	l.replay += replayed
	l.backfill += backfill
	l.mu.Unlock()
	return d, nil
}

// reclusterLoop is ttkvd's recluster tick, timed.
func (d *inproc) reclusterLoop() {
	defer d.ticked.Done()
	t := time.NewTicker(d.e.cfg.reclusterEvery)
	defer t.Stop()
	for {
		select {
		case <-d.tick:
			return
		case <-t.C:
			i := d.e.tr.begin(spanRecluster, 0, -1)
			s := time.Now()
			if d.e.cfg.advance {
				d.engine.AdvanceTo(time.Now())
			}
			d.engine.Recluster()
			el := time.Since(s)
			d.e.tr.end(i)
			l := d.e.layers
			l.mu.Lock()
			l.recluster += el
			l.reclusters++
			l.mu.Unlock()
		}
	}
}

func (d *inproc) client() *ttkvwire.Client { return d.conn }
func (d *inproc) setup() time.Duration     { return d.setupTime }

func (d *inproc) procStats() (int64, time.Duration, error) {
	return pidStats(os.Getpid())
}

func (d *inproc) stop() error {
	if d.conn != nil {
		d.conn.Close()
	}
	close(d.tick)
	d.ticked.Wait()
	d.srv.Close()
	if err := <-d.served; err != nil && !errors.Is(err, ttkvwire.ErrServerClosed) {
		return err
	}
	err := d.gc.Close()
	st := d.sa.Stats()
	l := d.e.layers
	l.mu.Lock()
	l.fsyncs += int64(d.gc.SyncCount())
	l.logBytes += st.Bytes - d.seg0.Bytes
	l.sealed += st.Sealed - d.seg0.Sealed
	l.store = d.store
	l.mu.Unlock()
	return err
}

// recordGet and recordSet keep the traffic of the last daemon started.
func (e *env) recordGet(key string) {
	if e.layers != nil {
		e.layers.gets = append(e.layers.gets, key)
	}
}

func (e *env) recordSet(key, value string, t time.Time) {
	if e.layers != nil {
		e.layers.sets = append(e.layers.sets, ttkv.Mutation{Key: key, Value: value, Time: t})
	}
}

// roundDone counts a finished round (a repair pass) of the traced run.
func (e *env) roundDone() {
	if e.layers != nil {
		e.layers.rounds++
	}
}

// requestSpan opens a request's root span in the traced run; requestDone
// closes it.
func (e *env) requestSpan() int {
	if e.tr == nil {
		return -1
	}
	return e.tr.request()
}

func (e *env) requestDone(i int) {
	if e.tr != nil {
		e.tr.endRequest(i)
	}
}

// allocWindow starts counting the process's heap allocations (client and
// in-process daemon alike) over one timed request loop of the traced run.
// The returned func stops the count and charges it to the loop's n
// requests. Repair probes and the harness's bookkeeping run outside these
// windows; the daemon's background recluster tick runs inside them.
func (e *env) allocWindow() func(n int) {
	if e.layers == nil || e.probing {
		return func(int) {}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m0 := ms.Mallocs
	return func(n int) {
		runtime.ReadMemStats(&ms)
		e.layers.mu.Lock()
		e.layers.allocs += ms.Mallocs - m0
		e.layers.allocReqs += n
		e.layers.mu.Unlock()
	}
}

// probeRepair times the repair layers on the in-process store with the
// fault injected, before the wire repair runs: Tool.Clusters with the
// request's tunables, and Tool.Search with the same options, the daemon's
// worker count, and a sandbox that times Model.Render.
func (e *env) probeRepair(f faults.Fault, opts repair.Options) {
	if e.layers == nil || e.cur == nil {
		return
	}
	l := e.layers
	model := f.Model()
	tool := repair.NewTool(e.cur.store, model)
	s := time.Now()
	tool.Clusters(opts.Window, opts.Threshold, false)
	clustered := time.Since(s)
	var renderNS, renders atomic.Int64
	opts.Workers = e.cfg.repair.Workers
	opts.Sandbox = func(cfg apps.Config, trial []string) string {
		s := time.Now()
		out := model.Render(cfg, trial)
		renderNS.Add(int64(time.Since(s)))
		renders.Add(1)
		return out
	}
	s = time.Now()
	res, err := tool.Search(opts)
	searched := time.Since(s)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.clusters += clustered
	l.search += searched
	l.render += time.Duration(renderNS.Load())
	l.renders += renders.Load()
	l.repairs++
	if err == nil {
		l.trials += res.Trials
		l.screenshots += len(res.Screenshots)
	}
}

// probeRevert records the repair's queueing time and times
// Store.RevertCluster of the confirmed fix's cluster, applied once more a
// second after the wire RFIX (the same values, so later checks still hold).
func (e *env) probeRevert(out repairOutcome, applyAt time.Time) {
	if e.layers == nil || e.cur == nil {
		return
	}
	var el time.Duration
	if len(out.status.Offending) > 0 {
		s := time.Now()
		_, _ = e.cur.store.RevertCluster(out.status.Offending, out.status.FixAt, applyAt.Add(time.Second)) // the RFIX gate already checked this revert
		el = time.Since(s)
	}
	e.layers.mu.Lock()
	e.layers.revert += el
	e.layers.queued += out.queued
	e.layers.mu.Unlock()
}

// runTraced runs workload untraced for half the time, then traced for
// the other half, then the layer replays, and reports per-layer metrics.
func runTraced(e *env, workload string) (*result, error) {
	half := e.seconds / 2
	e.seconds = half
	untraced, err := workloads[workload](e)
	if err != nil {
		return nil, err
	}
	cpuPerOp := e.cpuPerOp
	e.tr = newTracer()
	e.layers = &layers{}
	traced, err := workloads[workload](e)
	if err != nil {
		return nil, err
	}
	r := &result{Attempted: untraced.Attempted + traced.Attempted, Failed: untraced.Failed + traced.Failed}
	l := e.layers
	reqs := int(e.tr.reqID.Load())
	perReq := func(v float64) float64 { return v / float64(max(reqs, 1)) }
	rounds := float64(max(l.rounds, 1))

	r.add("ttkvd.cpu_us_per_op", "us", cpuPerOp, untraced.Attempted)
	dec, enc, n := wireCodec(&l.reqBytes, &l.replyBytes)
	r.add("ttkvwire.decode_ns", "ns", dec, n)
	r.add("ttkvwire.encode_ns", "ns", enc, n)
	r.add("ttkvwire.allocs_per_req", "count", float64(l.allocs)/float64(max(l.allocReqs, 1)), l.allocReqs)
	r.add("ttkvwire.conn_writes_per_req", "count", perReq(float64(l.connWrites)), reqs)
	r.add("ttkvwire.bytes_per_req", "B", perReq(float64(l.connBytes+l.readBytes)), reqs)
	get, set, setNew, nGet, nSet, nNew, err := storeReplay(l, e.work)
	if err != nil {
		return nil, err
	}
	r.add("ttkv.get_ns", "ns", get, nGet)
	r.add("ttkv.set_ns", "ns", set, nSet)
	r.add("ttkv.set_new_key_ns", "ns", setNew, nNew)
	r.add("ttkv.fsyncs", "count", float64(l.fsyncs)/rounds, l.rounds)
	r.add("ttkv.log_bytes", "B", float64(l.logBytes)/rounds, l.rounds)
	r.add("ttkv.segments_sealed", "count", float64(l.sealed)/rounds, l.rounds)
	r.add("ttkv.replay_ms", "ms", ms(l.replay)/rounds, l.rounds)
	r.add("ttkv.revert_us", "us", us(l.revert)/float64(max(l.repairs, 1)), l.repairs)
	r.add("core.observe_ns", "ns", float64(l.observe.Nanoseconds())/float64(max(l.observes, 1)), int(l.observes))
	r.add("core.recluster_ms", "ms", ms(l.recluster)/float64(max(l.reclusters, 1)), l.reclusters)
	r.add("core.reclusters", "count", float64(l.reclusters)/rounds, l.rounds)
	r.add("core.backfill_ms", "ms", ms(l.backfill)/rounds, l.rounds)
	per := func(d time.Duration) float64 { return ms(d) / float64(max(l.repairs, 1)) }
	r.add("repair.queue_ms", "ms", per(l.queued), l.repairs)
	r.add("repair.cluster_ms", "ms", per(l.clusters), l.repairs)
	r.add("repair.search_ms", "ms", per(l.search), l.repairs)
	r.add("repair.trials", "count", float64(l.trials)/float64(max(l.repairs, 1)), l.repairs)
	r.add("repair.screenshots", "count", float64(l.screenshots)/float64(max(l.repairs, 1)), l.repairs)
	r.add("apps.render_us", "us", us(l.render)/float64(max(l.renders, 1)), int(l.renders))
	self, spanned := e.tr.selfTimes()
	for _, name := range []string{"request", "server", "observe", "reply_write"} {
		r.add("self_us."+name, "us", us(self[name])/float64(max(spanned, 1)), spanned)
	}
	// The traced end-to-end figures and their ratio to the untraced ones.
	for _, name := range []string{"throughput_per_s", "latency_p50_us", "latency_p99_us", "setup_s"} {
		u, t := find(untraced, name), find(traced, name)
		r.add("traced."+name, t.Unit, t.Value, t.N)
		r.add("trace_overhead."+name, "ratio", t.Value/u.Value, t.N)
	}
	spans := filepath.Join(filepath.Dir(e.work), "spans", fmt.Sprintf("%s-s%d.jsonl", workload, e.seed))
	if err := e.tr.write(spans); err != nil {
		return nil, err
	}
	fmt.Printf("spans %s (%d recorded, first %d written)\n", spans, len(e.tr.spans), min(len(e.tr.spans), maxWrittenSpans))
	return r, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func find(r *result, name string) metric {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m
		}
	}
	return metric{Name: name, Value: 1}
}

// wireCodec replays the recorded request bytes through ReadValue and the
// recorded replies through WriteValue, returning ns per value.
func wireCodec(reqs, replies *bytes.Buffer) (decodeNS, encodeNS float64, n int) {
	br := bufio.NewReader(bytes.NewReader(reqs.Bytes()))
	s := time.Now()
	for {
		if _, err := ttkvwire.ReadValue(br); err != nil {
			break
		}
		n++
	}
	decodeNS = float64(time.Since(s).Nanoseconds()) / float64(max(n, 1))
	var vals []ttkvwire.Value
	rr := bufio.NewReader(bytes.NewReader(replies.Bytes()))
	for {
		v, err := ttkvwire.ReadValue(rr)
		if err != nil {
			break
		}
		vals = append(vals, v)
	}
	bw := bufio.NewWriter(io.Discard)
	s = time.Now()
	for _, v := range vals {
		_ = ttkvwire.WriteValue(bw, v) // io.Discard never fails
	}
	_ = bw.Flush()
	encodeNS = float64(time.Since(s).Nanoseconds()) / float64(max(len(vals), 1))
	return decodeNS, encodeNS, n
}

// minNewKeys pads the first-write replay with fresh keys when the run
// wrote fewer new keys, so set_new_key_ns always has a sample.
const minNewKeys = 1000

// storeReplay replays the last daemon's recorded GETs against its final
// store, and its SETs into a store loaded from its starting log, timing
// first writes of a key apart from later writes.
func storeReplay(l *layers, work string) (getNS, setNS, newNS float64, nGet, nSet, nNew int, err error) {
	if l.store != nil && len(l.gets) > 0 {
		s := time.Now()
		for _, k := range l.gets {
			l.store.Get(k)
		}
		getNS = float64(time.Since(s).Nanoseconds()) / float64(len(l.gets))
		nGet = len(l.gets)
	}
	base := ttkv.NewSharded(ttkv.DefaultShards)
	if l.baseLog != "" {
		// Load a copy: opening a log may tidy it, and the cache's
		// pristine copy must stay untouched.
		tmp := filepath.Join(work, "replay")
		if err = copyDir(l.baseLog, tmp); err != nil {
			return
		}
		var sa *ttkv.SegmentedAOF
		if sa, err = ttkv.OpenSegmentedInto(tmp, base, ttkv.SegmentedConfig{}); err != nil {
			return
		}
		if err = sa.Close(); err != nil {
			return
		}
	}
	var setT, newT time.Duration
	sets := l.sets
	for i := countNew(base, sets); i < minNewKeys; i++ {
		sets = append(sets, ttkv.Mutation{Key: fmt.Sprintf("ttkvbench/new/%06d", i), Value: "v", Time: time.Unix(1, 0)})
	}
	for _, m := range sets {
		_, exists := base.Get(m.Key)
		s := time.Now()
		if err = base.Set(m.Key, m.Value, m.Time); err != nil {
			return
		}
		el := time.Since(s)
		if exists {
			setT += el
			nSet++
		} else {
			newT += el
			nNew++
		}
	}
	setNS = float64(setT.Nanoseconds()) / float64(max(nSet, 1))
	newNS = float64(newT.Nanoseconds()) / float64(max(nNew, 1))
	return
}

// countNew counts the keys of sets absent from s.
func countNew(s *ttkv.Store, sets []ttkv.Mutation) int {
	seen := map[string]bool{}
	for _, m := range sets {
		if _, ok := s.Get(m.Key); !ok && !seen[m.Key] {
			seen[m.Key] = true
		}
	}
	return len(seen)
}
