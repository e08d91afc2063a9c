package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"hpcfail/internal/core"
	"hpcfail/internal/events"
	"hpcfail/internal/logparse"
	"hpcfail/internal/logstore"
	"hpcfail/internal/miner"
	"hpcfail/internal/render"
	"hpcfail/internal/replica"
	"hpcfail/internal/server"
	"hpcfail/internal/wal"
)

// span is one timed call into a layer. Spans of one op share Op; a
// layer span's parent is its op span.
type span struct {
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

// time runs fn as a span of op.
func (t *tracer) time(op int, name, parent string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.spans = append(t.spans, span{Op: op, Name: name, Parent: parent,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	return end.Sub(start)
}

// Op kinds of the ledger.
const (
	kindIngest = "ingest"
	kindRead   = "read"
	kindFinal  = "final" // the closing correctness reads
)

// tracedOp is one replayed op's identity in the traced run.
type tracedOp struct {
	id      int
	o       *op
	kind    string
	catchup bool // in a catch-up phase
}

// replayOrder numbers the schedule's ops in send order.
func replayOrder(in *inputs) []tracedOp {
	var ops []tracedOp
	for _, ph := range in.phases {
		for i := range ph.ops {
			t := tracedOp{id: len(ops), o: &ph.ops[i], kind: kindRead, catchup: ph.catchup}
			if t.o.kind == opIngest {
				t.kind = kindIngest
			}
			ops = append(ops, t)
		}
	}
	return ops
}

func serverBatches(bs []batch) []server.IngestBatch {
	out := make([]server.IngestBatch, len(bs))
	for i, b := range bs {
		out[i] = server.IngestBatch{Stream: b.Stream, Lines: b.Lines}
	}
	return out
}

// traceServer replays the ops against an in-process server built with
// serve's configuration, timing each Ingest and each diagnose through
// Handler().ServeHTTP.
func traceServer(sp workloadSpec, in *inputs, ops []tracedOp, work string, want []byte) ([]span, error) {
	t0 := time.Now()
	tr := &tracer{t0: t0}
	var store *logstore.Store
	var rep *logstore.IngestReport
	var err error
	tr.time(-1, "server.load_dir", "", func() { store, rep, err = logstore.LoadDirReport(in.bootDir, sched) })
	if err != nil {
		return nil, err
	}
	s := server.New(server.Config{Scheduler: sched, ReplicationDir: filepath.Join(work, "trace-wal"),
		ReplicationSync: true, EnableMiner: sp.mine})
	tr.time(-1, "server.seed", "", func() { s.Seed(store, rep) })
	store, rep = nil, nil
	if err := s.OpenReplicationLog(); err != nil {
		return nil, err
	}
	defer s.CloseReplication()
	h := s.Handler()
	bodies := make([][]server.IngestBatch, len(ops))
	for i, t := range ops {
		if t.kind == kindIngest {
			bodies[i] = serverBatches(t.o.batches)
		}
	}

	acked := uint64(1)
	for _, t := range ops {
		if t.kind == kindIngest {
			var res server.IngestResult
			var err error
			tr.time(t.id, "server.ingest", "", func() { res, err = s.Ingest(bodies[t.id]) })
			if err != nil {
				return nil, err
			}
			if res.Accepted != t.o.records || res.Quarantined != t.o.quar {
				return nil, fmt.Errorf("traced ingest accepted %d/quarantined %d, want %d/%d",
					res.Accepted, res.Quarantined, t.o.records, t.o.quar)
			}
			acked = max(acked, res.Watermark)
			continue
		}
		url := "/v1/diagnose" + t.o.query
		if t.o.waitAck {
			sep := "?"
			if t.o.query != "" {
				sep = "&"
			}
			url += sep + "min_watermark=" + strconv.FormatUint(acked, 10)
		}
		req := httptest.NewRequest(http.MethodGet, url, nil)
		rec := httptest.NewRecorder()
		tr.time(t.id, "server.diagnose", "", func() { h.ServeHTTP(rec, req) })
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("traced diagnose %s: %d", url, rec.Code)
		}
	}
	final := len(ops)
	for _, q := range []string{"", "?format=json"} {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, "/v1/diagnose"+q, nil)
		tr.time(final, "server.diagnose", kindFinal, func() { h.ServeHTTP(rec, req) })
		if q != "" && !bytes.Equal(rec.Body.Bytes(), want) {
			return nil, fmt.Errorf("traced server's final JSON differs from cmd/diagnose")
		}
	}
	return tr.spans, nil
}

// traceLayers replays the schedule through the layers' public calls,
// in the order the server makes them, timing each call. It runs after
// traceServer has released its state, so the two never share the heap.
func traceLayers(sp workloadSpec, in *inputs, ops []tracedOp, work string, want []byte) ([]span, error) {
	tr := &tracer{t0: time.Now()}
	var store *logstore.Store
	var rep *logstore.IngestReport
	var err error
	tr.time(-1, "logstore.load_dir", "", func() { store, rep, err = logstore.LoadDirReport(in.bootDir, sched) })
	if err != nil {
		return nil, err
	}
	recs := store.All()
	store = nil
	cfg := core.DefaultConfig()
	var eng *core.Engine
	var res *core.Result
	tr.time(-1, "core.seed", "", func() {
		eng = core.NewEngine(cfg)
		eng.ApplyBatch(recs)
		res = eng.Snapshot(rep.LostChunks())
	})
	// A standalone live store, fed the same deltas as the engine's own,
	// times Live.Apply apart from the rest of ApplyBatch.
	live := logstore.NewLive()
	sorted := append([]events.Record(nil), recs...)
	events.SortByTime(sorted)
	live.Apply(sorted)
	tail := sorted[len(sorted)-1].Time
	sorted = nil
	watcher := core.NewWatcher(cfg, func(core.Detection) {})
	watcher.FeedAll(recs)
	var mn *miner.Miner
	if sp.mine {
		mn = miner.New(miner.Config{})
		mn.IngestAll(minable(recs, rep.Streams))
	}
	recs = nil
	wl, err := wal.Open(filepath.Join(work, "layer-wal"), wal.Options{Sync: true})
	if err != nil {
		return nil, err
	}
	defer wl.Close()

	var pending []events.Record
	var head, tailBuf, payload []byte
	wm := uint64(1)
	rendered := map[string]bool{}
	renderShape := func(id int, query, parent string) []byte {
		var buf bytes.Buffer
		switch query {
		case "?format=json":
			tr.time(id, "render.json", parent, func() { err = render.DiagnoseJSON(&buf, res) })
		case "", "?full=true":
			tr.time(id, "render.text", parent, func() {
				err = render.Diagnose(&buf, "the served corpus", res.Store, rep, res, query != "")
			})
		}
		// Node and window views go through the server's internal result
		// filter; their render stays in server.residual_us.
		return buf.Bytes()
	}
	for _, t := range ops {
		if t.kind == kindIngest {
			var recs []events.Record
			var sreps []logparse.StreamReport
			tr.time(t.id, "logparse.parse", kindIngest, func() {
				for _, b := range t.o.batches {
					st, _ := events.ParseStream(b.Stream)
					r, srep := logparse.ParseLinesReport(st, sched, b.Lines)
					recs = append(recs, r...)
					sreps = append(sreps, srep)
				}
			})
			wm++
			rb := serverBatches(t.o.batches)
			tr.time(t.id, "replica.encode", kindIngest, func() {
				tailBuf = replica.AppendEntryBatches(tailBuf[:0], rb)
				head = replica.AppendEntryHead(head[:0], 1, wm)
			})
			payload = append(append(payload[:0], head...), tailBuf...)
			tr.time(t.id, "wal.append", kindIngest, func() { err = wl.AppendBatch(payload) })
			if err != nil {
				return nil, err
			}
			tr.time(t.id, "wal.sync", kindIngest, func() { err = wl.Sync() })
			if err != nil {
				return nil, err
			}
			tr.time(t.id, "core.watcher_feed", kindIngest, func() { watcher.FeedAll(recs) })
			if mn != nil {
				lines := minable(recs, sreps)
				tr.time(t.id, "miner.ingest", kindIngest, func() { mn.IngestAll(lines) })
			}
			for _, srep := range sreps {
				rep.MergeStream(srep)
			}
			pending = append(pending, recs...)
			continue
		}
		if len(pending) > 0 {
			delta := append([]events.Record(nil), pending...)
			events.SortByTime(delta)
			name := "logstore.live_apply"
			if delta[0].Time.Before(tail) {
				name = "logstore.live_apply_late"
			}
			tr.time(t.id, name, kindRead, func() { live.Apply(delta) })
			if last := delta[len(delta)-1].Time; last.After(tail) {
				tail = last
			}
			tr.time(t.id, "core.engine_apply_batch", kindRead, func() { eng.ApplyBatch(pending) })
			tr.time(t.id, "core.engine_snapshot", kindRead, func() { res = eng.Snapshot(rep.LostChunks()) })
			pending = nil
			rendered = map[string]bool{}
		}
		if !rendered[t.o.query] {
			rendered[t.o.query] = true
			renderShape(t.id, t.o.query, kindRead)
		}
	}
	final := len(ops)
	renderShape(final, "", kindFinal)
	if got := renderShape(final, "?format=json", kindFinal); !bytes.Equal(got, want) {
		return nil, fmt.Errorf("layer replay's final JSON differs from cmd/diagnose")
	}
	return tr.spans, err
}

// minable is what the server feeds its miner for one parsed batch:
// every quarantined line, then every parsed but unclassified message.
func minable(recs []events.Record, sreps []logparse.StreamReport) []string {
	var lines []string
	for i := range sreps {
		sreps[i].EachQuarantined(func(l string) { lines = append(lines, l) })
	}
	for i := range recs {
		if recs[i].Category == "unclassified" && recs[i].Msg != "" {
			lines = append(lines, recs[i].Msg)
		}
	}
	return lines
}

// ledgerRow reconciles one op kind: the layers' self-times plus the
// residual equal the server span, and that plus the HTTP overhead
// equals the untraced end-to-end figure.
type ledgerRow struct {
	Kind         string             `json:"kind"`
	Ops          int                `json:"ops"`
	LayersMeanUS map[string]float64 `json:"layers_mean_us"`
	LayersSumUS  float64            `json:"layers_sum_us"`
	ResidualUS   float64            `json:"server_residual_us"`
	ServerMeanUS float64            `json:"server_mean_us"`
	ServerP50US  float64            `json:"server_p50_us"`
	ServerP99US  float64            `json:"server_p99_us"`
	E2EP50US     float64            `json:"untraced_p50_us"`
	E2EP99US     float64            `json:"untraced_p99_us"`
	HTTPOverUS   float64            `json:"http_overhead_us"`
}

// ledger is the traced run's written report.
type ledger struct {
	Workload          string      `json:"workload"`
	Seed              uint64      `json:"seed"`
	Rows              []ledgerRow `json:"rows"`
	SpanCostNS        float64     `json:"span_cost_ns"`
	TracingOverheadUS float64     `json:"tracing_overhead_us_per_op"`
}

// spanCost measures what recording one span costs, by timing empty ones.
func spanCost() time.Duration {
	const n = 100000
	tr := &tracer{t0: time.Now(), spans: make([]span, 0, n)}
	start := time.Now()
	for i := 0; i < n; i++ {
		tr.time(i, "noop", "", func() {})
	}
	return time.Since(start) / n
}

// runTraced replays the workload in-process with spans and returns the
// per-layer metrics, writing spans and the ledger under out.
func runTraced(sp workloadSpec, in *inputs, u *untraced, work, out, stem string) (*metricSet, *ledger, error) {
	want := u.served["?format=json"]
	ops := replayOrder(in)
	srvSpans, err := traceServer(sp, in, ops, work, want)
	if err != nil {
		return nil, nil, err
	}
	layerSpans, err := traceLayers(sp, in, ops, work, want)
	if err != nil {
		return nil, nil, err
	}

	kindOf := map[int]string{}
	for _, t := range ops {
		kindOf[t.id] = t.kind
	}
	serverDur := map[string][]time.Duration{}
	var serverAll []time.Duration
	for _, s := range srvSpans {
		if s.Op < 0 || s.Parent == kindFinal {
			continue
		}
		k := kindOf[s.Op]
		serverDur[k] = append(serverDur[k], s.dur())
		serverAll = append(serverAll, s.dur())
	}
	layerSum := map[string]map[string]time.Duration{kindIngest: {}, kindRead: {}}
	total := map[string]time.Duration{}
	count := map[string]int{}
	for _, s := range layerSpans {
		total[s.Name] += s.dur()
		count[s.Name]++
		if s.Op >= 0 && s.Parent != kindFinal {
			layerSum[kindOf[s.Op]][s.Name] += s.dur()
		}
	}
	// Self time of the engine's apply excludes the Live.Apply it makes,
	// which the standalone live store timed.
	for _, m := range layerSum {
		if d, ok := m["core.engine_apply_batch"]; ok {
			m["core.engine_apply_batch"] = d - m["logstore.live_apply"] - m["logstore.live_apply_late"]
		}
	}

	e2e := map[string][]time.Duration{kindIngest: u.ingest, kindRead: u.read}
	// The untraced ingest samples leave out catch-up bursts; so must the
	// server spans they are set against.
	var mainIngest []time.Duration
	for _, s := range srvSpans {
		if s.Op >= 0 && s.Parent != kindFinal && kindOf[s.Op] == kindIngest && !ops[s.Op].catchup {
			mainIngest = append(mainIngest, s.dur())
		}
	}
	lg := &ledger{Workload: sp.name}
	var residualTotal time.Duration
	for _, k := range []string{kindIngest, kindRead} {
		n := len(serverDur[k])
		if n == 0 {
			continue
		}
		row := ledgerRow{Kind: k, Ops: n, LayersMeanUS: map[string]float64{}}
		var layers time.Duration
		for name, d := range layerSum[k] {
			row.LayersMeanUS[name] = us(d) / float64(n)
			layers += d
		}
		var srvTotal time.Duration
		for _, d := range serverDur[k] {
			srvTotal += d
		}
		residualTotal += srvTotal - layers
		row.LayersSumUS = us(layers) / float64(n)
		row.ServerMeanUS = us(srvTotal) / float64(n)
		row.ResidualUS = row.ServerMeanUS - row.LayersSumUS
		srvSamples := serverDur[k]
		if k == kindIngest {
			srvSamples = mainIngest
		}
		row.ServerP50US = us(quantile(srvSamples, 0.5))
		row.ServerP99US = us(quantile(srvSamples, 0.99))
		row.E2EP50US = us(quantile(e2e[k], 0.5))
		row.E2EP99US = us(quantile(e2e[k], 0.99))
		row.HTTPOverUS = row.E2EP50US - row.ServerP50US
		lg.Rows = append(lg.Rows, row)
	}
	cost := spanCost()
	lg.SpanCostNS = float64(cost)
	lg.TracingOverheadUS = us(cost) * float64(len(srvSpans)+len(layerSpans)) / float64(len(ops))

	perCall := func(name string) time.Duration {
		if count[name] == 0 {
			return 0
		}
		return total[name] / time.Duration(count[name])
	}
	perUnit := func(name string, units int) float64 {
		if units == 0 {
			return 0
		}
		return float64(total[name]) / float64(units)
	}
	mined := 0
	if sp.mine {
		mined = in.quarantined
	}
	applies := count["core.engine_apply_batch"]
	var catchupApply time.Duration
	catchups := 0
	for _, s := range layerSpans {
		if s.Op >= 0 && s.Op < len(ops) && ops[s.Op].o.catchup &&
			(s.Name == "core.engine_apply_batch" || s.Name == "core.engine_snapshot") {
			catchupApply += s.dur()
			if s.Name == "core.engine_snapshot" {
				catchups++
			}
		}
	}
	d := func(name string) float64 { return u.promDelta[name] }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	hits, misses := d("hpcfail_cache_hits_total"), d("hpcfail_cache_misses_total")
	m := &metricSet{}
	m.add("server.ingest_us", us(mean(serverDur[kindIngest])), "us")
	m.add("server.diagnose_us", us(mean(serverDur[kindRead])), "us")
	m.add("server.residual_us", us(residualTotal)/float64(len(serverAll)), "us")
	m.add("http.overhead_us", us(quantile(u.all, 0.5))-us(quantile(serverAll, 0.5)), "us")
	m.add("server.cache_hit_ratio", ratio(hits, hits+misses), "1")
	m.add("server.apply_ms_mean", 1000*ratio(d("hpcfail_snapshot_apply_seconds_sum"), d("hpcfail_snapshot_apply_seconds_count")), "ms")
	m.add("server.group_size_mean", ratio(d("hpcfail_journal_group_size_sum"), d("hpcfail_journal_group_size_count")), "count")
	m.add("server.syncs_per_ack", ratio(d("hpcfail_wal_syncs"), float64(u.ackedIngests)), "1")
	m.add("logparse.parse_ns_per_line", perUnit("logparse.parse", in.lines), "ns")
	m.add("logparse.quarantined_frac", ratio(float64(u.quarantined), float64(u.sentLines)), "1")
	m.add("replica.encode_ns_per_line", perUnit("replica.encode", in.lines), "ns")
	m.add("wal.append_us", us(perCall("wal.append")), "us")
	m.add("wal.sync_us", us(perCall("wal.sync")), "us")
	m.add("wal.bytes_per_line", ratio(d("hpcfail_wal_bytes"), float64(u.sentLines)), "B")
	m.add("core.watcher_feed_ns_per_record", perUnit("core.watcher_feed", in.records), "ns")
	m.add("miner.ingest_ns_per_line", perUnit("miner.ingest", mined), "ns")
	m.add("logstore.load_dir_ms", ms(total["logstore.load_dir"]), "ms")
	m.add("logstore.live_apply_us", us(perCall("logstore.live_apply")), "us")
	m.add("logstore.live_apply_late_us", us(perCall("logstore.live_apply_late")), "us")
	m.add("core.seed_ms", ms(total["core.seed"]), "ms")
	engineSelf := total["core.engine_apply_batch"] - total["logstore.live_apply"] - total["logstore.live_apply_late"]
	m.add("core.engine_apply_us", us(engineSelf)/float64(max(applies, 1)), "us")
	m.add("core.engine_snapshot_us", us(perCall("core.engine_snapshot")), "us")
	m.add("core.catchup_apply_ms", ms(catchupApply)/float64(max(catchups, 1)), "ms")
	m.add("render.json_us", us(perCall("render.json")), "us")
	m.add("render.text_us", us(perCall("render.text")), "us")
	m.add("runtime.gc_cycles_per_op", float64(u.gcCycles)/float64(u.ops), "count")
	m.add("runtime.gc_pause_ms_per_op", ms(u.gcPause)/float64(u.ops), "ms")
	m.add("runtime.heap_live_mb", u.heapAlloc/(1<<20), "MB")
	m.add("driver.late_p99_ms", ms(quantile(u.late, 0.99)), "ms")
	m.add("trace.peak_rss_mb", selfPeakRSSMB(), "MB")
	m.add("trace.overhead_us_per_op", lg.TracingOverheadUS, "us")

	if err := writeJSON(filepath.Join(out, stem+"-spans.json"), map[string]any{
		"workload": sp.name, "server": srvSpans, "layers": layerSpans,
	}); err != nil {
		return nil, nil, err
	}
	if err := writeJSON(filepath.Join(out, stem+"-ledger.json"), lg); err != nil {
		return nil, nil, err
	}
	return m, lg, nil
}

func mean(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t / time.Duration(len(ds))
}

func writeJSON(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// printLedger writes the reconciliation table for a human reader.
func printLedger(w *strings.Builder, lg *ledger) {
	for _, r := range lg.Rows {
		fmt.Fprintf(w, "ledger %s (%d ops, means in us):\n", r.Kind, r.Ops)
		names := make([]string, 0, len(r.LayersMeanUS))
		for n := range r.LayersMeanUS {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "  %-28s %12.2f\n", n, r.LayersMeanUS[n])
		}
		fmt.Fprintf(w, "  %-28s %12.2f\n", "server.residual", r.ResidualUS)
		fmt.Fprintf(w, "  %-28s %12.2f  (= layers %.2f + residual %.2f)\n", "server span mean", r.ServerMeanUS, r.LayersSumUS, r.ResidualUS)
		fmt.Fprintf(w, "  %-28s %12.2f  p99 %.2f (traced, in-process)\n", "server span p50", r.ServerP50US, r.ServerP99US)
		fmt.Fprintf(w, "  %-28s %12.2f\n", "http.overhead (p50)", r.HTTPOverUS)
		fmt.Fprintf(w, "  %-28s %12.2f  p99 %.2f (untraced, = span p50 + http.overhead)\n", "untraced end-to-end p50", r.E2EP50US, r.E2EP99US)
	}
	fmt.Fprintf(w, "tracing overhead: %.1f ns per span, %.2f us per op\n", lg.SpanCostNS, lg.TracingOverheadUS)
}
