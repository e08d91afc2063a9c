// Command perfbench is the end-to-end benchmark of cmd/serve. It
// generates seeded inputs, drives the serve binary over loopback HTTP
// through one workload, checks the served diagnosis against
// cmd/diagnose, and prints every metric by name and unit; the last line
// of its output is one JSON result object.
//
//	perfbench --workload week-mixed --seed 1 --seconds 10 --trace 0
//
// With --trace 1 it also replays the workload in-process with spans
// around each layer's public calls and reports per-layer metrics and a
// ledger that reconciles them with the end-to-end figures. See
// README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet keeps metrics in the order they were added.
type metricSet struct {
	names []string
	m     map[string]metric
}

func (s *metricSet) add(name string, v float64, unit string) {
	if s.m == nil {
		s.m = map[string]metric{}
	}
	s.names = append(s.names, name)
	s.m[name] = metric{Value: v, Unit: unit}
}

// outcome is the last line of output.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	bin      string // holds the serve and diagnose binaries
	out      string // work files, spans and ledgers
}

func main() {
	var c config
	var trace int
	flag.StringVar(&c.workload, "workload", "", "week-mixed or week-late-fresh")
	flag.Uint64Var(&c.seed, "seed", 1, "input seed")
	flag.IntVar(&c.seconds, "seconds", 10, "run length the workload's fixed work is sized for")
	flag.IntVar(&trace, "trace", 0, "1 = also run the traced replay and report per-layer metrics")
	flag.StringVar(&c.bin, "bin", filepath.Join(".bench_build", "bin"), "directory holding the serve and diagnose binaries")
	flag.StringVar(&c.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for work files, spans and ledgers")
	flag.Parse()
	c.trace = trace == 1
	if c.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	var report strings.Builder
	res, err := run(c, &report)
	fmt.Print(report.String())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run generates the inputs, drives the workload and returns the result.
func run(c config, report *strings.Builder) (*outcome, error) {
	sp, err := specFor(c.workload, c.seconds)
	if err != nil {
		return nil, err
	}
	return runSpec(c, sp, report)
}

// runSpec runs one workload as sized by sp.
func runSpec(c config, sp workloadSpec, report *strings.Builder) (*outcome, error) {
	if err := os.MkdirAll(c.out, 0o755); err != nil {
		return nil, err
	}
	stem := fmt.Sprintf("%s-seed%d", c.workload, c.seed)
	work, err := os.MkdirTemp(c.out, stem+"-work-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	in, err := generate(sp, c.seed, work)
	if err != nil {
		return nil, fmt.Errorf("generate inputs: %w", err)
	}

	fmt.Fprintf(report, "%s seed %d: %d ingests, %d lines (%d injected), %d late ingests, %d records expected\n",
		sp.name, c.seed, in.ingests, in.lines, in.injected, in.lateIngests, in.records)
	// Keep the harness's own collector out of the untraced run: collect
	// only near a 1 GiB heap.
	runtime.GC()
	gcPercent, memLimit := debug.SetGCPercent(-1), debug.SetMemoryLimit(1<<30)
	u, err := runUntraced(sp, in, c.bin, work)
	debug.SetGCPercent(gcPercent)
	debug.SetMemoryLimit(memLimit)
	if err != nil {
		return nil, err
	}
	ms := endToEnd(u)
	for _, name := range ms.names {
		// A metric without samples cannot be reported; the run fails
		// rather than print a zero.
		if ms.m[name].Value == 0 {
			u.fail("metric %s has no samples", name)
		}
	}
	res := &outcome{Attempted: u.attempted, Failed: u.failed}
	printMetrics(report, ms, u)
	fmt.Fprint(report, "setup launches (s):")
	for _, d := range u.setups {
		fmt.Fprintf(report, " %.4f", d.Seconds())
	}
	fmt.Fprintln(report)
	if c.trace {
		layers, lg, err := runTraced(sp, in, u, work, c.out, stem)
		if err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
		printLedger(report, lg)
		printMetrics(report, layers, nil)
		ms = layers
	}
	for _, f := range u.failures {
		fmt.Fprintln(report, "FAIL:", f)
	}
	res.Failed = u.failed
	res.Correct = u.failed == 0
	res.Metrics = ms.m
	return res, nil
}

// endToEnd computes the metrics a user of the service sees.
func endToEnd(u *untraced) *metricSet {
	m := &metricSet{}
	m.add("setup_s", quantile(u.setups, 0.5).Seconds(), "s")
	m.add("ingest_ack_p50_ms", ms(quantile(u.ingest, 0.5)), "ms")
	m.add("ingest_ack_tail_ms", ms(quantile(u.ingest, tailQ(len(u.ingest)))), "ms")
	m.add("read_p50_ms", ms(quantile(u.read, 0.5)), "ms")
	m.add("read_tail_ms", ms(quantile(u.read, tailQ(len(u.read)))), "ms")
	m.add("fresh_read_p50_ms", ms(quantile(u.fresh, 0.5)), "ms")
	m.add("fresh_read_tail_ms", ms(quantile(u.fresh, tailQ(len(u.fresh)))), "ms")
	m.add("catchup_read_ms", ms(mean(u.catchup)), "ms")
	m.add("acked_lines_per_s", float64(u.mainLines)/u.loadWall.Seconds(), "1/s")
	m.add("server_cpu_ms_per_op", ms(u.cpu)/float64(u.ops), "ms")
	m.add("heap_bytes_per_record", u.heapAlloc/float64(u.records), "B")
	m.add("peak_rss_mb", u.peakRSSMB, "MB")
	return m
}

// tailQ is the highest quantile, at most p99 and at least the median,
// that leaves ten or more of n samples beyond it: the p99 of a few
// hundred reads would rest on two or three samples.
func tailQ(n int) float64 {
	return max(0.5, min(0.99, 1-10/float64(n)))
}

// printMetrics writes one line per metric; with u it adds the sample
// counts behind each timing.
func printMetrics(w *strings.Builder, m *metricSet, u *untraced) {
	samples := map[string]int{}
	if u != nil {
		for _, p := range []struct {
			prefix string
			n      int
		}{{"ingest_ack", len(u.ingest)}, {"read_", len(u.read)}, {"fresh_read", len(u.fresh)}, {"catchup", len(u.catchup)}, {"setup", len(u.setups)}} {
			for _, name := range m.names {
				if strings.HasPrefix(name, p.prefix) {
					samples[name] = p.n
				}
			}
		}
	}
	names := append([]string(nil), m.names...)
	if u == nil {
		sort.Strings(names)
	}
	for _, name := range names {
		v := m.m[name]
		fmt.Fprintf(w, "%-34s %14.4f %-6s", name, v.Value, v.Unit)
		if n, ok := samples[name]; ok {
			fmt.Fprintf(w, " (n=%d", n)
			if strings.HasSuffix(name, "_tail_ms") {
				fmt.Fprintf(w, ", p%.1f", 100*tailQ(n))
			}
			fmt.Fprint(w, ")")
		}
		fmt.Fprintln(w)
	}
}
