// Command perfbench is PLEROMA's end-to-end benchmark. It drives one
// workload through the public API — a daemon served in-process on loopback
// TCP, or an in-process System — checks every delivery against its own
// oracle, and prints the end-to-end metrics (untraced) or the per-layer
// metrics (traced). The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (see README.md):
//
//	bash perfbench/run.sh --workload tcp-stream --seed 1 --seconds 12 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: tcp-stream, inproc-fanout or tcp-churn")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 15, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "1 records spans and prints the per-layer metrics instead of the end-to-end ones")
	steps := fs.Int("steps", 0, "measure exactly this many steps instead of --seconds (reference counts)")
	out := fs.String("out", ".bench_build", "directory the traced run writes its span file to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := lookupSpec(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace takes 0 or 1")
		return 2
	}
	sc := defaultScale(sp, *seconds)
	sc.steps = *steps
	rep, err := runWorkload(sp, sc, *seed, *trace == 1, *out)
	w := bufio.NewWriter(stdout)
	defer w.Flush()
	if rep == nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rep.print(w)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// report is one run's printed output.
type report struct {
	header    []string
	metrics   []metric
	notes     []string
	correct   bool
	attempted int
	failed    int
}

func (rp *report) print(w io.Writer) {
	for _, h := range rp.header {
		fmt.Fprintf(w, "# %s\n", h)
	}
	for _, m := range rp.metrics {
		fmt.Fprintf(w, "%-38s %14.6g %s\n", m.name, m.value, m.unit)
	}
	for _, n := range rp.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]val, len(rp.metrics))
	for _, m := range rp.metrics {
		ms[m.name] = val{m.value, m.unit}
	}
	b, _ := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{rp.correct, rp.attempted, rp.failed, ms})
	fmt.Fprintf(w, "%s\n", b)
}

// runWorkload runs one workload and builds its report. A nil report means
// the run could not complete; a report with an error means a check failed.
func runWorkload(sp spec, sc scale, seed int64, traced bool, outDir string) (*report, error) {
	rp := &report{header: machineHeader()}
	rp.header = append(rp.header, fmt.Sprintf("run: workload=%s seed=%d seconds=%g steps=%d trace=%v", sp.name, seed, sc.seconds, sc.steps, traced))
	r := newRunner(sp, sc, seed, traced)
	if err := r.run(); err != nil {
		if !errors.As(err, new(violation)) {
			return nil, err
		}
		rp.attempted = max(1, r.res.attempted)
		return rp, err
	}
	res := &r.res
	rp.correct = true
	rp.attempted, rp.failed = res.attempted, res.failed
	rp.header = append(rp.header, fmt.Sprintf("counts: warm_steps=%d measured_steps=%d events=%d deliveries=%d (%.3f per event) false_positives=%d control_ops=%d",
		res.warmSteps, res.measuredSteps, res.events, res.deliveries, float64(res.deliveries)/float64(max(1, res.events)), res.falsePositives, res.ctlOps))
	rp.header = append(rp.header, fmt.Sprintf("system totals (set-up, warm-up and measured): flowmods=%d link_packets=%d deliveries=%d false_positives=%d",
		res.stats.FlowMods, res.stats.LinkPackets, res.stats.Deliveries, res.stats.FalsePositives))
	rp.header = append(rp.header, fmt.Sprintf("samples: rounds=%d control_ops=%d setups=%d", len(res.steps), 2*len(res.steps), len(res.setup)))
	gated, info := endToEnd(sp, res)
	if !traced {
		rp.metrics = gated
		for _, m := range info {
			rp.notes = append(rp.notes, fmt.Sprintf("info %-31s %14.6g %s", m.name, m.value, m.unit))
		}
		return rp, nil
	}
	// The traced run's own end-to-end figures, against the untraced run's,
	// give the tracing overhead; they are never reported as end-to-end.
	for _, m := range append(gated, info...) {
		rp.notes = append(rp.notes, fmt.Sprintf("traced %-29s %14.6g %s", m.name, m.value, m.unit))
	}
	r.tr.on = true
	wf, err := replayWire(res.capture, sp.dims, testbedHosts, r.tr)
	r.tr.on = false
	if err != nil {
		return nil, err
	}
	var lg ledger
	rp.metrics, lg = perLayer(sp, res, r.tr, wf)
	rp.notes = append(rp.notes, lg.lines()...)
	path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", sp.name, seed))
	if err := r.tr.write(path, map[string]any{"machine": rp.header, "spans": len(r.tr.spans)}); err != nil {
		return nil, err
	}
	rp.notes = append(rp.notes, fmt.Sprintf("spans: %d written to %s", len(r.tr.spans), path))
	return rp, nil
}

func (lg ledger) lines() []string {
	fmtStages := func(ss []stage) string {
		parts := make([]string, len(ss))
		for i, s := range ss {
			parts[i] = fmt.Sprintf("%s %.3fms", s.name, ms(s.d))
		}
		return strings.Join(parts, " + ")
	}
	cover := func(d time.Duration) float64 { return 100 * float64(d) / float64(lg.round) }
	return []string{
		fmt.Sprintf("ledger: round %.3fms; calls %s = %.3fms (%.1f%% of the round)", ms(lg.round), fmtStages(lg.calls), ms(lg.callSum), cover(lg.callSum)),
		fmt.Sprintf("ledger: layers %s = %.3fms (%.1f%%, gap %.1f%%)", fmtStages(lg.layers), ms(lg.layerSum), cover(lg.layerSum), 100-cover(lg.layerSum)),
	}
}

// machineHeader names the machine every record was taken on, with a
// same-run reference figure from a fixed CPU loop that does not depend on
// the program.
func machineHeader() []string {
	return []string{
		fmt.Sprintf("machine: nproc=%d gomaxprocs=%d go=%s cpu=%q", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel()),
		fmt.Sprintf("reference: calib_ns_per_iter=%.4f (fixed integer loop, median of 5)", calibrate()),
	}
}

// cpuModel reads the processor name from /proc/cpuinfo (Linux); elsewhere
// it reports the architecture only.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				return strings.TrimSpace(v)
			}
		}
	}
	return runtime.GOARCH
}

// calibSink keeps the calibration loop's result alive.
var calibSink uint64

// calibrate times a fixed xorshift/multiply loop: a machine's single-core
// integer speed, independent of the program under test.
func calibrate() float64 {
	const iters = 20_000_000
	var xs []float64
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		x, acc := uint64(88172645463325252), uint64(0)
		for i := 0; i < iters; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			acc += x * 0x9e3779b97f4a7c15
		}
		calibSink += acc
		xs = append(xs, float64(time.Since(t0))/iters)
	}
	return median(xs)
}
