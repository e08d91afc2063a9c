package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"
)

// setupLaunches is how many times a run starts serve to time set-up;
// the last launch carries the load.
const setupLaunches = 5

// conns caps the client's connections at the box's two CPUs.
const conns = 2

// result is what one op returned.
type result struct {
	lat  time.Duration // from due (open loop) or launch (closed loop)
	late time.Duration // launch minus due
	wm   uint64        // acked or served watermark
	err  error
}

// untraced is the measured outcome of one untraced run.
type untraced struct {
	setups []time.Duration

	ingest, read, fresh, catchup []time.Duration
	all                          []time.Duration // every op, for the ledger
	late                         []time.Duration
	loadWall                     time.Duration
	mainLines                    int // lines acked in the main phases
	attempted, failed            int
	failures                     []string

	cpu            time.Duration
	ops            int
	records        int     // at the end of the run
	heapAlloc      float64 // live heap at the end of the run
	peakRSSMB      float64
	gcCycles       int
	gcPause        time.Duration
	promDelta      map[string]float64 // /metrics counters over the load
	ackedIngests   int
	quarantined    int
	sentLines      int
	served         map[string][]byte // final text and JSON bodies
	finalWatermark uint64            // highest acked watermark
	readWM         uint64            // highest watermark a read was served at
}

func (u *untraced) fail(format string, args ...any) {
	u.failed++
	if len(u.failures) < 20 {
		u.failures = append(u.failures, fmt.Sprintf(format, args...))
	}
}

func newClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// ingestAck is the POST /v1/ingest answer.
type ingestAck struct {
	Accepted    int    `json:"accepted"`
	Quarantined int    `json:"quarantined"`
	Watermark   uint64 `json:"watermark"`
}

// doIngest posts one op and checks the ack accounts for exactly the
// records and quarantined lines the parser yields for its lines.
func doIngest(c *http.Client, base string, o *op) (uint64, error) {
	resp, err := c.Post(base+"/v1/ingest", "application/json", bytes.NewReader(o.body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("ingest: %d %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var a ingestAck
	if err := json.Unmarshal(body, &a); err != nil {
		return 0, fmt.Errorf("ingest ack: %w", err)
	}
	if a.Accepted != o.records || a.Quarantined != o.quar {
		return a.Watermark, fmt.Errorf("ingest accepted %d/quarantined %d, want %d/%d",
			a.Accepted, a.Quarantined, o.records, o.quar)
	}
	return a.Watermark, nil
}

// doRead runs one diagnose and returns the watermark it was served at.
func doRead(c *http.Client, base string, o *op, acked uint64) (uint64, []byte, error) {
	url := base + "/v1/diagnose" + o.query
	if o.waitAck {
		sep := "?"
		if o.query != "" {
			sep = "&"
		}
		url += sep + "min_watermark=" + strconv.FormatUint(acked, 10)
	}
	resp, err := c.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, nil, fmt.Errorf("diagnose %s: %d %s", o.query, resp.StatusCode, bytes.TrimSpace(body))
	}
	wm, err := strconv.ParseUint(resp.Header.Get("X-Hpcfail-Watermark"), 10, 64)
	if err != nil {
		return 0, nil, fmt.Errorf("diagnose %s: bad watermark header: %v", o.query, err)
	}
	if o.waitAck && wm < acked {
		return wm, nil, fmt.Errorf("diagnose served watermark %d below acked %d", wm, acked)
	}
	return wm, body, nil
}

// runUntraced drives the real serve binary through the workload. The
// first launches only time set-up; the last carries the load.
func runUntraced(sp workloadSpec, in *inputs, bin, work string) (*untraced, error) {
	u := &untraced{promDelta: map[string]float64{}, served: map[string][]byte{}}
	c := newClient()
	defer c.CloseIdleConnections()
	for i := 0; i < setupLaunches; i++ {
		srv, err := startServe(bin, in.bootDir, filepath.Join(work, fmt.Sprintf("wal%d", i)), sp.mine)
		if err != nil {
			return nil, err
		}
		u.setups = append(u.setups, srv.setup)
		if i == setupLaunches-1 {
			if err := u.load(c, srv, sp, in); err != nil {
				srv.kill()
				return nil, err
			}
		}
		if err := srv.stop(); err != nil {
			return nil, err
		}
	}
	// Correctness gate, part two: the same bytes as cmd/diagnose over
	// the reference corpus.
	ref, err := referenceOutputs(in, bin, work)
	if err != nil {
		return nil, err
	}
	for q, want := range ref {
		if u.served[q] != nil && !bytes.Equal(u.served[q], want) {
			u.fail("served diagnose %q differs from cmd/diagnose (%d vs %d bytes)", q, len(u.served[q]), len(want))
		}
	}
	return u, nil
}

// load runs the schedule against srv, scraping it before and after.
func (u *untraced) load(c *http.Client, srv *serveProc, sp workloadSpec, in *inputs) error {
	h0, err := srv.health(c)
	if err != nil {
		return err
	}
	prom0, err := srv.promMetrics(c)
	if err != nil {
		return err
	}
	heap0, err := srv.heap(c, false)
	if err != nil {
		return err
	}
	cpu0, err := srv.cpu()
	if err != nil {
		return err
	}

	u.readWM, u.finalWatermark = h0.Watermark, h0.Watermark
	for _, ph := range in.phases {
		start := time.Now()
		var res []result
		if sp.period > 0 && !ph.catchup {
			res = openLoop(c, srv.base, ph.ops)
		} else {
			res = closedLoop(c, srv.base, ph.ops, u.finalWatermark)
		}
		if !ph.catchup {
			u.loadWall += time.Since(start)
		}
		u.account(ph, res)
	}

	cpu1, err := srv.cpu()
	if err != nil {
		return err
	}
	u.cpu = cpu1 - cpu0
	heap1, err := srv.heap(c, false)
	if err != nil {
		return err
	}
	u.gcCycles, u.gcPause = gcBetween(heap0, heap1)
	prom1, err := srv.promMetrics(c)
	if err != nil {
		return err
	}
	for name, v := range prom1 {
		u.promDelta[name] = v - prom0[name]
	}
	live, err := srv.heap(c, true)
	if err != nil {
		return err
	}
	u.heapAlloc = live.heapAlloc
	h1, err := srv.health(c)
	if err != nil {
		return err
	}
	u.records = h1.Records
	if u.peakRSSMB, err = srv.peakRSSMB(); err != nil {
		return err
	}

	// Correctness gate, part one: the served state at the final
	// watermark.
	u.attempted++
	if want, wantWM := h0.Records+in.records, h0.Watermark+uint64(in.ingests); h1.Records != want || h1.Watermark != wantWM {
		u.fail("healthz records %d watermark %d, want %d and %d", h1.Records, h1.Watermark, want, wantWM)
	}
	for _, q := range []string{"", "?format=json"} {
		u.attempted++
		body, err := getBody(c, srv.base+"/v1/diagnose"+q)
		if err != nil {
			u.fail("final diagnose %q: %v", q, err)
		}
		u.served[q] = body
	}
	return nil
}

// account folds one phase's op results into the run's samples and
// applies the per-op gates.
func (u *untraced) account(ph phase, res []result) {
	for i := range ph.ops {
		o, r := &ph.ops[i], res[i]
		u.attempted++
		u.ops++
		if r.err != nil {
			u.fail("%v", r.err)
			continue
		}
		u.all = append(u.all, r.lat)
		u.late = append(u.late, r.late)
		if o.kind == opIngest {
			u.ackedIngests++
			u.sentLines += o.lines
			u.quarantined += o.quar
			if !ph.catchup {
				u.ingest = append(u.ingest, r.lat)
				u.mainLines += o.lines
			}
			u.finalWatermark = max(u.finalWatermark, r.wm)
			continue
		}
		u.read = append(u.read, r.lat)
		if r.wm > u.readWM {
			// The first read served at a watermark pays its apply.
			u.fresh = append(u.fresh, r.lat)
			u.readWM = r.wm
		}
		if o.catchup {
			u.catchup = append(u.catchup, r.lat)
		}
	}
}

// openLoop launches ops at their intended due times and times each
// from its due time, so a stall is charged to every op it delays. One
// connection carries the ingests and one the reads, as a log forwarder
// and an operator's dashboard would, so neither queues behind the
// other inside the client.
func openLoop(c *http.Client, base string, ops []op) []result {
	type job struct {
		i        int
		due, enq time.Time
	}
	// Each queue is sized to the schedule: the dispatcher never blocks
	// on a busy connection, so launch lateness measures only the driver.
	queues := [2]chan job{make(chan job, len(ops)), make(chan job, len(ops))}
	res := make([]result, len(ops))
	var wg sync.WaitGroup
	for _, q := range queues {
		wg.Add(1)
		go func(q chan job) {
			defer wg.Done()
			for j := range q {
				o := &ops[j.i]
				r := result{late: j.enq.Sub(j.due)}
				if o.kind == opIngest {
					r.wm, r.err = doIngest(c, base, o)
				} else {
					r.wm, _, r.err = doRead(c, base, o, 0)
				}
				r.lat = time.Since(j.due)
				res[j.i] = r
			}
		}(q)
	}
	t0 := time.Now().Add(10 * time.Millisecond)
	for i := range ops {
		due := t0.Add(ops[i].due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		queues[ops[i].kind] <- job{i: i, due: due, enq: time.Now()}
	}
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	return res
}

// closedLoop runs ops back to back; a read waits for the last acked
// watermark, at least acked, when asked to.
func closedLoop(c *http.Client, base string, ops []op, acked uint64) []result {
	res := make([]result, len(ops))
	prev := time.Now()
	for i := range ops {
		o := &ops[i]
		launch := time.Now()
		r := result{late: launch.Sub(prev)}
		if o.kind == opIngest {
			r.wm, r.err = doIngest(c, base, o)
			acked = max(acked, r.wm)
		} else {
			r.wm, _, r.err = doRead(c, base, o, acked)
		}
		prev = time.Now()
		r.lat = prev.Sub(launch)
		res[i] = r
	}
	return res
}

// referenceOutputs runs cmd/diagnose, text ("") and -json
// ("?format=json"), over the bootstrap plus every replayed line per
// stream in arrival order. The directory is named as the server names
// its corpus in text output.
func referenceOutputs(in *inputs, bin, work string) (map[string][]byte, error) {
	refRoot := filepath.Join(work, "ref")
	if err := writeReference(in, filepath.Join(refRoot, "the served corpus")); err != nil {
		return nil, err
	}
	defer os.RemoveAll(refRoot)
	out := map[string][]byte{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	var firstErr error
	for _, q := range []string{"", "?format=json"} {
		args := []string{"-logs", "the served corpus"}
		if q == "?format=json" {
			args = append(args, "-json")
		}
		wg.Add(1)
		go func(q string, args []string) {
			defer wg.Done()
			cmd := exec.Command(filepath.Join(bin, "diagnose"), args...)
			cmd.Dir = refRoot
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			mu.Lock()
			defer mu.Unlock()
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("cmd/diagnose %v: %v\n%s", args, err, stderr.String())
			}
			out[q] = stdout.Bytes()
		}(q, args)
	}
	wg.Wait()
	return out, firstErr
}

// quantile is the q-quantile of ds by linear interpolation.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + time.Duration((pos-float64(lo))*float64(s[lo+1]-s[lo]))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// selfPeakRSSMB is this process's VmHWM, the traced run's footprint.
func selfPeakRSSMB() float64 {
	v, _ := vmHWM("/proc/self/status")
	return v
}
