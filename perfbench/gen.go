package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"

	"hpcfail"
	"hpcfail/internal/cname"
	"hpcfail/internal/events"
	"hpcfail/internal/loggen"
	"hpcfail/internal/logparse"
	"hpcfail/internal/stacktrace"
	"hpcfail/internal/topology"
)

// simStart is the first simulated day (cmd/logsim's default).
var simStart = time.Date(2015, 3, 2, 0, 0, 0, 0, time.UTC)

const sched = topology.SchedulerSlurm

// unit is one parse unit of a stream: a record line plus any Call
// Trace continuation lines that fold into it. Units are never split
// across batches, so the server parses each batch exactly as the CLI
// parses the whole file.
type unit struct {
	stream events.Stream
	t      time.Time
	lines  []string
	// injected marks an unknown-daemon line the parser quarantines.
	injected bool
}

// batch is one stream's lines in an ingest request (the wire shape of
// POST /v1/ingest).
type batch struct {
	Stream string   `json:"stream"`
	Lines  []string `json:"lines"`
}

type opKind int

const (
	opIngest opKind = iota
	opRead
)

// op is one scheduled request.
type op struct {
	kind opKind
	// ingest
	batches []batch
	body    []byte // pre-encoded request body
	lines   int
	records int // records the parser yields for the batches
	quar    int // lines it quarantines
	lagged  int // held-back lines of lagged streams this op flushes
	late    bool
	// due is the open loop's intended launch, from the phase start.
	due time.Duration
	// read
	query   string // path and query after /v1/diagnose
	catchup bool   // the read that closes a catch-up burst
	// waitAck adds min_watermark=<last acked watermark> to the query.
	waitAck bool
}

// phase is one stretch of the schedule.
type phase struct {
	ops []op // in send order
	// catchup marks a closed-loop burst of ingests ended by one read
	// that applies all of it; its ingests are timed apart from the main
	// load.
	catchup bool
}

// inputs is everything one run replays, generated from the seed before
// any timed phase.
type inputs struct {
	bootDir string
	// phases run one after another: main load phases, each followed by
	// a catch-up phase.
	phases []phase

	lines, injected, ingests, lateIngests int
	records, quarantined                  int
}

// workloadSpec sizes one workload. Every count is fixed by the spec
// and the --seconds argument, never by how fast the program runs.
type workloadSpec struct {
	name     string
	bootDays int
	poolDays int
	// Each cycle of the schedule is ingestsPerCycle ingests followed by
	// readsPerCycle reads. period > 0 makes an open loop that starts a
	// cycle every period: the ingests at its start, the first read just
	// after them, the other reads spread evenly over the rest of it.
	period                         time.Duration
	ingestsPerCycle, readsPerCycle int
	// ingests is the number of main-phase ingests, split over rounds
	// main phases.
	ingests        int
	rounds         int
	linesPerIngest int
	// lagged streams are held back and flushed with every lagEvery-th
	// ingest, behind the corpus tail by then.
	lagged   []events.Stream
	lagEvery int
	// injectFrac of the sent lines are unknown-daemon lines.
	injectFrac float64
	mine       bool
	// After each main phase, one burst of catchupIngests ingests
	// followed by one read.
	catchupIngests int
}

// specFor sizes a workload for a run of the given length.
func specFor(name string, seconds int) (workloadSpec, error) {
	s := seconds
	switch name {
	case "week-mixed":
		return workloadSpec{
			name: name, bootDays: 7, poolDays: 3,
			period: 100 * time.Millisecond, ingestsPerCycle: 1, readsPerCycle: 4, ingests: 10 * s, rounds: 25,
			linesPerIngest: 8, catchupIngests: 16, injectFrac: 0.05, mine: true,
		}, nil
	case "week-late-fresh":
		return workloadSpec{
			name: name, bootDays: 7, poolDays: 3,
			ingestsPerCycle: 16, readsPerCycle: 1, ingests: 256 * s, rounds: 10, linesPerIngest: 2,
			lagged:   []events.Stream{events.StreamControllerCC, events.StreamERD},
			lagEvery: 64, catchupIngests: 32,
		}, nil
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q (want week-mixed or week-late-fresh)", name)
}

// scenarioSeed seeds the simulation. The corpus is one fixed scenario,
// so every run seed measures the same corpus size and failure mix; the
// run seed varies the replay schedule: batch cut points, read shapes,
// the node set and where unknown-daemon lines are injected. Seeding the
// simulation from the run seed instead made corpus size and failure
// count, and with them every latency, differ from seed to seed by more
// than the run-to-run noise.
const scenarioSeed = 42

// generate simulates S1 for bootDays+poolDays, cuts it at bootDays into
// a bootstrap directory under dir, and builds the replay schedule.
func generate(sp workloadSpec, seed uint64, dir string) (*inputs, error) {
	p, err := hpcfail.SystemProfile("S1")
	if err != nil {
		return nil, err
	}
	cut := simStart.Add(time.Duration(sp.bootDays) * 24 * time.Hour)
	end := cut.Add(time.Duration(sp.poolDays) * 24 * time.Hour)
	scn, err := hpcfail.Simulate(p, simStart, end, scenarioSeed)
	if err != nil {
		return nil, fmt.Errorf("simulate: %w", err)
	}
	full := filepath.Join(dir, "full")
	if err := hpcfail.WriteLogs(full, scn); err != nil {
		return nil, fmt.Errorf("write logs: %w", err)
	}
	in := &inputs{bootDir: filepath.Join(dir, "boot")}
	if err := os.MkdirAll(in.bootDir, 0o755); err != nil {
		return nil, err
	}
	var pool []unit
	for _, st := range loggen.AllStreams() {
		units, err := readUnits(filepath.Join(full, loggen.FileName(st)), st)
		if err != nil {
			return nil, err
		}
		i := sort.Search(len(units), func(i int) bool { return !units[i].t.Before(cut) })
		if i == 0 {
			// A stream the bootstrap lacks is left out of the replay too,
			// so the served corpus and the reference see the same streams.
			continue
		}
		var boot []string
		for _, u := range units[:i] {
			boot = append(boot, u.lines...)
		}
		if err := os.WriteFile(filepath.Join(in.bootDir, loggen.FileName(st)), []byte(strings.Join(boot, "\n")+"\n"), 0o644); err != nil {
			return nil, err
		}
		pool = append(pool, units[i:]...)
	}
	if err := os.RemoveAll(full); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))

	// Delivery order: time order across streams.
	sort.SliceStable(pool, func(i, j int) bool {
		if !pool[i].t.Equal(pool[j].t) {
			return pool[i].t.Before(pool[j].t)
		}
		return pool[i].stream < pool[j].stream
	})

	var queue []unit
	var held []unit // lagged units awaiting their flush
	for _, u := range pool {
		if slices.Contains(sp.lagged, u.stream) {
			held = append(held, u)
			continue
		}
		queue = append(queue, u)
	}
	if sp.injectFrac > 0 {
		queue = inject(queue, sp.injectFrac, rng)
	}

	nodes := pickNodes(in.bootDir, 16, rng)
	if len(nodes) == 0 {
		return nil, fmt.Errorf("no node names on the bootstrap console")
	}
	tail := cut // latest record time delivered so far

	takes := 0
	take := func() (op, error) {
		var o op
		byStream := map[events.Stream]int{}
		var minT, maxT time.Time
		flush := false
		// Batch sizes are drawn around linesPerIngest, so the total work
		// is the same for every seed but the cut points are not.
		size := sp.linesPerIngest/2 + rng.IntN(sp.linesPerIngest+1)
		for {
			var u unit
			switch {
			case o.lines < size || len(queue) > 0 && queue[0].injected:
				// Injected lines go with the unit they follow, so every
				// batch boundary keeps the stated share.
				if len(queue) == 0 {
					return o, fmt.Errorf("%s: replay pool exhausted; raise poolDays", sp.name)
				}
				u = queue[0]
				queue = queue[1:]
				if u.t.After(maxT) {
					maxT = u.t
				}
			case sp.lagEvery > 0 && (takes+1)%sp.lagEvery == 0 && len(held) > 0 && held[0].t.Before(maxT):
				// Flush the lagged lines that are older than this batch.
				u = held[0]
				held = held[1:]
				flush = true
			}
			if u.lines == nil {
				break
			}
			bi, ok := byStream[u.stream]
			if !ok {
				bi = len(o.batches)
				byStream[u.stream] = bi
				o.batches = append(o.batches, batch{Stream: u.stream.String()})
			}
			o.batches[bi].Lines = append(o.batches[bi].Lines, u.lines...)
			if !flush {
				o.lines += len(u.lines)
			} else {
				o.lagged += len(u.lines)
			}
			if u.injected {
				in.injected += len(u.lines)
				continue
			}
			if minT.IsZero() || u.t.Before(minT) {
				minT = u.t
			}
		}
		takes++
		o.lines += o.lagged
		// A batch is late when it carries a record behind the tail of
		// everything delivered before it.
		o.late = !minT.IsZero() && minT.Before(tail)
		for _, b := range o.batches {
			for _, l := range b.Lines {
				if t, err := lineTime(l); err == nil && t.After(tail) {
					tail = t
				}
			}
		}
		o.kind = opIngest
		for _, b := range o.batches {
			st, _ := events.ParseStream(b.Stream)
			recs, rep := logparse.ParseLinesReport(st, sched, b.Lines)
			o.records += len(recs)
			o.quar += rep.Quarantined
		}
		body, err := json.Marshal(struct {
			Batches []batch `json:"batches"`
		}{o.batches})
		if err != nil {
			return o, err
		}
		o.body = body
		in.lines += o.lines
		in.records += o.records
		in.quarantined += o.quar
		in.ingests++
		if o.late {
			in.lateIngests++
		}
		return o, nil
	}

	perRound := sp.ingests / sp.rounds
	for r := 0; r < sp.rounds; r++ {
		var main phase
		var cycleStart time.Duration
		for i := 0; i < perRound; i++ {
			o, err := take()
			if err != nil {
				return nil, err
			}
			o.due = cycleStart
			main.ops = append(main.ops, o)
			if (i+1)%sp.ingestsPerCycle != 0 {
				continue
			}
			for k := 0; k < sp.readsPerCycle; k++ {
				rd := op{kind: opRead, query: "?format=json", waitAck: true}
				if sp.period > 0 {
					rd = op{kind: opRead, query: readShape(rng, nodes), due: cycleStart + sp.period/50}
					if k > 0 {
						rd.due = cycleStart + sp.period*time.Duration(k+1)/time.Duration(sp.readsPerCycle+1)
					}
				}
				main.ops = append(main.ops, rd)
			}
			cycleStart += sp.period
		}
		burst := phase{catchup: true}
		for i := 0; i < sp.catchupIngests; i++ {
			o, err := take()
			if err != nil {
				return nil, err
			}
			burst.ops = append(burst.ops, o)
		}
		burst.ops = append(burst.ops, op{kind: opRead, query: "?format=json", waitAck: true, catchup: true})
		in.phases = append(in.phases, main, burst)
	}
	return in, nil
}

// readShape draws one read of the rotation: plain text, JSON, a 24h
// window, the full listing, or one node of the seeded node set, each
// kind equally likely.
func readShape(rng *rand.Rand, nodes []string) string {
	switch rng.IntN(5) {
	case 0:
		return ""
	case 1:
		return "?format=json"
	case 2:
		return "?window=24h"
	case 3:
		return "?full=true"
	}
	return "?node=" + nodes[rng.IntN(len(nodes))]
}

// pickNodes draws n distinct node names seen on the bootstrap console.
func pickNodes(bootDir string, n int, rng *rand.Rand) []string {
	data, err := os.ReadFile(filepath.Join(bootDir, loggen.FileName(events.StreamConsole)))
	if err != nil {
		return nil
	}
	seen := map[string]bool{}
	var all []string
	for _, l := range strings.Split(string(data), "\n") {
		f := strings.Fields(l)
		if len(f) < 2 || seen[f[1]] {
			continue
		}
		if c, err := cname.Parse(f[1]); err == nil && c.Level() == cname.LevelNode {
			seen[f[1]] = true
			all = append(all, f[1])
		}
	}
	sort.Strings(all)
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	if len(all) > n {
		all = all[:n]
	}
	return all
}

// inject inserts unknown-daemon lines between units so that they make
// up frac of every prefix of the queue, to within one line; the seed
// draws their contents.
func inject(q []unit, frac float64, rng *rand.Rand) []unit {
	out := make([]unit, 0, len(q)+int(float64(len(q))*frac)+1)
	lines, injected := 0, 0
	for _, u := range q {
		out = append(out, u)
		lines += len(u.lines)
		for float64(injected+1) <= frac*float64(lines+1) {
			line := fmt.Sprintf("%s ib%d opensmd: SUBNET SWEEP complete: %d nodes in %d ms",
				u.t.Format("2006-01-02T15:04:05.000000Z07:00"), rng.IntN(64), 512+rng.IntN(4096), 1+rng.IntN(900))
			// The scheduler and ALPS parsers are lenient; put the line
			// on the console instead.
			st := u.stream
			if !st.Internal() && !st.External() {
				st = events.StreamConsole
			}
			out = append(out, unit{stream: st, t: u.t, lines: []string{line}, injected: true})
			lines++
			injected++
		}
	}
	return out
}

// readUnits splits a stream file into parse units.
func readUnits(path string, st events.Stream) ([]unit, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var units []unit
	for _, l := range strings.Split(strings.TrimRight(string(data), "\n"), "\n") {
		if strings.TrimSpace(l) == "" {
			continue
		}
		if st.Internal() && len(units) > 0 && continuation(l) {
			u := &units[len(units)-1]
			u.lines = append(u.lines, l)
			continue
		}
		t, err := lineTime(l)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		units = append(units, unit{stream: st, t: t, lines: []string{l}})
	}
	return units, nil
}

// continuation reports a Call Trace header or frame line, which the
// internal-stream parser folds into the preceding record.
func continuation(l string) bool {
	i := strings.Index(l, ": ")
	if i < 0 {
		return false
	}
	rest := strings.TrimSpace(l[i+2:])
	if strings.HasPrefix(rest, "Call Trace:") {
		return true
	}
	_, ok := stacktrace.ParseFrame(rest)
	return ok
}

// lineTime parses a raw line's leading timestamp.
func lineTime(l string) (time.Time, error) {
	ts, _, _ := strings.Cut(l, " ")
	return time.Parse(time.RFC3339Nano, ts)
}

// arrival is every line the schedule sends, per stream in arrival
// order.
func arrival(in *inputs) map[events.Stream][]string {
	out := map[events.Stream][]string{}
	for _, ph := range in.phases {
		for _, o := range ph.ops {
			for _, b := range o.batches {
				st, _ := events.ParseStream(b.Stream)
				out[st] = append(out[st], b.Lines...)
			}
		}
	}
	return out
}

// writeReference lays out the corpus the served state must equal: each
// bootstrap stream file followed by that stream's replayed lines in
// arrival order.
func writeReference(in *inputs, dir string) error {
	arr := arrival(in)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, st := range loggen.AllStreams() {
		name := loggen.FileName(st)
		boot, err := os.ReadFile(filepath.Join(in.bootDir, name))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		buf.Write(boot)
		for _, l := range arr[st] {
			buf.WriteString(l)
			buf.WriteByte('\n')
		}
		if err := os.WriteFile(filepath.Join(dir, name), buf.Bytes(), 0o644); err != nil {
			return err
		}
	}
	return nil
}
