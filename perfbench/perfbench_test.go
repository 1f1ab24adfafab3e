package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the tests hold the
// program's output to.
type benchmarkSpec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bs benchmarkSpec
	if err := json.Unmarshal(b, &bs); err != nil {
		t.Fatal(err)
	}
	return bs
}

// shortScale runs a workload in a few seconds: one set-up, a small
// population, a fixed handful of steps.
func shortScale(sp spec) scale {
	return scale{setups: 1, population: min(sp.population, 64), warmSteps: 3, steps: 12}
}

// TestWorkloadsShortScale runs every workload untraced and traced at a
// short scale: every check must pass and every metric BENCHMARK.json
// names must be reported with its unit.
func TestWorkloadsShortScale(t *testing.T) {
	bs := loadBenchmarkSpec(t)
	if len(bs.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bs.Workloads), len(workloads))
	}
	for _, w := range bs.Workloads {
		sp, err := lookupSpec(w.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, traced := range []bool{false, true} {
			rp, err := runWorkload(sp, shortScale(sp), 7, traced, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", sp.name, traced, err)
			}
			if !rp.correct || rp.attempted < 1 || rp.failed != 0 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d", sp.name, traced, rp.correct, rp.attempted, rp.failed)
			}
			want := bs.EndToEnd
			if traced {
				want = bs.PerLayer
			}
			if len(rp.metrics) != len(want) {
				t.Fatalf("%s traced=%v: %d metrics, BENCHMARK.json lists %d", sp.name, traced, len(rp.metrics), len(want))
			}
			for i, m := range rp.metrics {
				if m.name != want[i].Name || m.unit != want[i].Unit {
					t.Errorf("%s traced=%v: metric %d is %s [%s], BENCHMARK.json has %s [%s]", sp.name, traced, i, m.name, m.unit, want[i].Name, want[i].Unit)
				}
				if !traced && !(m.value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", sp.name, m.name, m.value)
				}
			}
		}
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	sp, _ := lookupSpec("inproc-fanout")
	steps := func(seed int64) []step {
		g := newGenerator(sp, seed, testbedHosts)
		for i := 0; i < 10; i++ {
			g.initial()
		}
		var out []step
		for i := 0; i < 5; i++ {
			var st step
			g.nextStep(&st)
			out = append(out, st)
		}
		return out
	}
	eq := func(a, b []step) bool {
		return slices.EqualFunc(a, b, func(x, y step) bool {
			return x.retire == y.retire && x.newSub == y.newSub && x.newRect == y.newRect &&
				x.newHost == y.newHost && slices.Equal(x.vals, y.vals)
		})
	}
	if !eq(steps(3), steps(3)) {
		t.Fatal("the same seed produced different inputs")
	}
	if eq(steps(3), steps(4)) {
		t.Fatal("different seeds produced the same inputs")
	}
}

// TestOracleRejectsDoctoredLogs takes one step's real delivery log, which
// the oracle accepts, and checks that each kind of corruption is caught.
func TestOracleRejectsDoctoredLogs(t *testing.T) {
	sp, _ := lookupSpec("inproc-fanout")
	p, err := newPass(sp, 11, 48, false, false)
	if err != nil {
		t.Fatal(err)
	}
	defer p.tgt.close()
	var st step
	var exact, fp = -1, -1
	for i := 0; i < 20 && (exact < 0 || fp < 0); i++ {
		if _, err := p.step(&st, int32(i), newTracer(false)); err != nil {
			t.Fatal(err)
		}
		exact, fp = -1, -1
		for j, d := range p.snk.log {
			if d.fp && fp < 0 {
				fp = j
			}
			if !d.fp && exact < 0 {
				exact = j
			}
		}
	}
	if exact < 0 || fp < 0 {
		t.Fatal("no step produced both an exact and a false-positive delivery")
	}
	good := slices.Clone(p.snk.log)
	n := sp.roundEvents
	if err := p.orc.check(st.vals, n, good); err != nil {
		t.Fatalf("the undoctored log is rejected: %v", err)
	}

	retired := good[exact]
	retired.sub = st.retire
	doctored := map[string][]delivery{
		"exact delivery dropped":         slices.Delete(slices.Clone(good), exact, exact+1),
		"exact delivery duplicated":      slices.Insert(slices.Clone(good), exact, good[exact]),
		"false positive duplicated":      slices.Insert(slices.Clone(good), fp, good[fp]),
		"exact flagged false positive":   flip(good, exact),
		"false positive flagged exact":   flip(good, fp),
		"delivery to retired subscriber": append(slices.Clone(good), retired),
	}
	for name, log := range doctored {
		if err := p.orc.check(st.vals, n, log); err == nil {
			t.Errorf("%s: the oracle accepted the log", name)
		}
	}
}

func flip(log []delivery, i int) []delivery {
	out := slices.Clone(log)
	out[i].fp = !out[i].fp
	return out
}
