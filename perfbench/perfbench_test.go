package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// smallSpec shrinks a workload so a test run takes seconds: a short
// bootstrap, a handful of ops, the same shape otherwise.
func smallSpec(t *testing.T, name string) workloadSpec {
	t.Helper()
	sp, err := specFor(name, 1)
	if err != nil {
		t.Fatal(err)
	}
	sp.bootDays, sp.poolDays = 2, 3
	switch name {
	case "week-mixed":
		sp.ingests, sp.rounds, sp.catchupIngests = 10, 2, 3
	case "week-late-fresh":
		sp.ingests, sp.rounds, sp.catchupIngests = 32, 2, 16
	}
	return sp
}

// TestGenerateDeterministic: one seed yields byte-identical inputs, and
// another seed different ones.
func TestGenerateDeterministic(t *testing.T) {
	for _, name := range []string{"week-mixed", "week-late-fresh"} {
		sp := smallSpec(t, name)
		a := mustGenerate(t, sp, 7)
		b := mustGenerate(t, sp, 7)
		c := mustGenerate(t, sp, 8)
		if !reflect.DeepEqual(digest(t, a), digest(t, b)) {
			t.Errorf("%s: seed 7 generated different inputs twice", name)
		}
		if reflect.DeepEqual(digest(t, a), digest(t, c)) {
			t.Errorf("%s: seeds 7 and 8 generated identical inputs", name)
		}
	}
}

// TestStatedShares: the late-batch share of week-late-fresh and the
// unknown-line share of week-mixed are what the benchmark states.
func TestStatedShares(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		sp := smallSpec(t, "week-late-fresh")
		in := mustGenerate(t, sp, seed)
		if want := in.ingests / sp.lagEvery; in.lateIngests != want {
			t.Errorf("seed %d: %d of %d ingests land behind the tail, want 1 in %d = %d",
				seed, in.lateIngests, in.ingests, sp.lagEvery, want)
		}
		sp = smallSpec(t, "week-mixed")
		in = mustGenerate(t, sp, seed)
		if in.quarantined != in.injected {
			t.Errorf("seed %d: parser quarantines %d lines, %d were injected", seed, in.quarantined, in.injected)
		}
		if share := float64(in.injected) / float64(in.lines); share < sp.injectFrac-0.005 || share > sp.injectFrac+0.005 {
			t.Errorf("seed %d: injected share %.4f, want %.3f", seed, share, sp.injectFrac)
		}
		for _, st := range []string{"scheduler", "alps"} {
			for _, ph := range in.phases {
				for _, o := range ph.ops {
					for _, b := range o.batches {
						if b.Stream == st && strings.Contains(strings.Join(b.Lines, "\n"), "opensmd") {
							t.Fatalf("seed %d: unknown-daemon line injected into %s", seed, st)
						}
					}
				}
			}
		}
	}
}

// TestSmoke runs every workload at a tiny size through the real serve
// and diagnose binaries, untraced and traced, and checks that it passes
// the correctness gate and emits every metric BENCHMARK.json names,
// with its unit.
func TestSmoke(t *testing.T) {
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+"/", "hpcfail/cmd/serve", "hpcfail/cmd/diagnose")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"week-mixed", "week-late-fresh"} {
		t.Run(name, func(t *testing.T) {
			sp := smallSpec(t, name)
			for _, trace := range []bool{false, true} {
				var report strings.Builder
				c := config{workload: name, seed: 3, trace: trace, bin: bin, out: t.TempDir()}
				res, err := runSpec(c, sp, &report)
				if err != nil {
					t.Fatalf("trace=%v: %v\n%s", trace, err, report.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("trace=%v: correct=%v failed=%d attempted=%d\n%s",
						trace, res.Correct, res.Failed, res.Attempted, report.String())
				}
				want := bench.EndToEnd
				if trace {
					want = bench.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("trace=%v: %d metrics, BENCHMARK.json names %d", trace, len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("trace=%v: metric %s = %+v, want unit %s", trace, m.Name, got, m.Unit)
					}
				}
				if trace {
					ledger := filepath.Join(c.out, name+"-seed3-ledger.json")
					if _, err := os.Stat(ledger); err != nil {
						t.Errorf("no ledger written: %v", err)
					}
				}
			}
		})
	}
}

func mustGenerate(t *testing.T, sp workloadSpec, seed uint64) *inputs {
	t.Helper()
	in, err := generate(sp, seed, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// digest is everything generate produced, as bytes.
func digest(t *testing.T, in *inputs) [][]byte {
	t.Helper()
	var out [][]byte
	entries, err := os.ReadDir(in.bootDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(in.bootDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, []byte(e.Name()), data)
	}
	for _, ph := range in.phases {
		for _, o := range ph.ops {
			var b bytes.Buffer
			b.Write(o.body)
			b.WriteString(o.query)
			b.WriteString(o.due.String())
			out = append(out, b.Bytes())
		}
	}
	return out
}
