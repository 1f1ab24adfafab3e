package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"pleroma"
)

// scale sizes one run. The defaults come from the workload spec; the
// self-tests shrink them to run every workload in a few seconds.
type scale struct {
	setups     int
	population int
	warmSteps  int
	// steps fixes the measured phase to that many steps; 0 measures for
	// seconds of wall time instead.
	steps   int
	seconds float64
}

func defaultScale(sp spec, seconds float64) scale {
	return scale{setups: sp.setups, population: sp.population, warmSteps: sp.warmSteps, seconds: seconds}
}

// result is everything one run measured.
type result struct {
	// setup holds each set-up's wall and process CPU time.
	setup []struct{ wall, cpu time.Duration }
	// per measured step: its timed sections and its deliveries.
	steps     []timing
	stepDeliv []int
	events    int
	ctlOps    int
	attempted int
	failed    int
	// liveHeapMB is the heap after set-up and warm-up, net of what the
	// benchmark held before set-up; retainedKBPerKop is how much more the
	// measured phase left live, per thousand operations.
	liveHeapMB       float64
	retainedKBPerKop float64
	mem0, mem1       runtime.MemStats
	// reg0/reg1 bracket the measured steps in the counters pass (traced
	// runs only).
	reg0, reg1 pleroma.MetricsSnapshot
	// deliveries/falsePositives over the measured phase.
	deliveries, falsePositives uint64
	warmSteps, measuredSteps   int
	// capture is the sample of measured rounds replayed through the wire
	// codecs in a traced run.
	capture []capturedRound
	// stats are the measured system's counters at the end of the run
	// (set-up, warm-up and measured phase).
	stats pleroma.Stats
}

type capturedRound struct {
	vals []uint32
	log  []delivery
}

// The wire-codec sample: measured rounds are captured until either bound
// is reached.
const (
	captureEvents     = 16384
	captureDeliveries = 65536
)

// testbedHosts is the host count of the default topology (the paper's
// 10-switch/8-host testbed); the generator needs it before any System
// exists, and set-up checks it.
const testbedHosts = 8

// pass is one deployment driven through the workload's sequence: the
// measured run, or a replay of it.
type pass struct {
	sp  spec
	tcp bool
	tgt target
	gen *generator
	orc *oracle
	snk *sink
}

// newPass builds a deployment and installs the subscription population:
// boot, dials, advertisements, subscriptions — the timed set-up. observe
// switches on the program's own observability (registry and tracer).
func newPass(sp spec, seed int64, population int, tcp, observe bool) (*pass, error) {
	p := &pass{sp: sp, tcp: tcp, snk: &sink{}, orc: newOracle(sp.dims, !tcp), gen: newGenerator(sp, seed, testbedHosts)}
	var hosts int
	if tcp {
		t, err := newTCPTarget(sp, observe, p.snk)
		if err != nil {
			return nil, err
		}
		p.tgt, hosts = t, len(t.hosts)
	} else {
		t, err := newInprocTarget(sp, observe, p.snk)
		if err != nil {
			return nil, err
		}
		p.tgt, hosts = t, len(t.hosts)
	}
	if hosts != testbedHosts {
		p.tgt.close()
		return nil, fmt.Errorf("testbed has %d hosts, want %d", hosts, testbedHosts)
	}
	for i := 0; i < population; i++ {
		idx, rc, host := p.gen.initial()
		if err := p.tgt.subscribe(idx, host, filterFor(rc, sp.dims)); err != nil {
			p.tgt.close()
			return nil, fmt.Errorf("subscribe %s: %w", subID(idx), err)
		}
		p.orc.add(idx, rc)
	}
	return p, nil
}

// timing is one step's timed sections: wall time and the process CPU
// time consumed during each.
type timing struct {
	ctlWall, ctlCPU     [2]time.Duration // unsubscribe, subscribe
	roundWall, roundCPU time.Duration
}

// step runs the next step of the sequence: move one subscription, then
// one round, and check the deliveries against the oracle.
func (p *pass) step(st *step, id int32, tr *tracer) (timing, error) {
	var tm timing
	p.gen.nextStep(st)
	f := filterFor(st.newRect, p.sp.dims)
	p.snk.log = p.snk.log[:0]
	layer := "facade."
	if p.tcp {
		layer = "transport."
	}
	parent := tr.begin("step", -1, id)
	sp := tr.begin(layer+"unsubscribe", parent, id)
	c0, t0 := cpuTime(), time.Now()
	err := p.tgt.unsubscribe(st.retire)
	tm.ctlWall[0], tm.ctlCPU[0] = time.Since(t0), cpuTime()-c0
	tr.end(sp)
	if err != nil {
		return tm, fmt.Errorf("unsubscribe %s: %w", subID(st.retire), err)
	}
	p.orc.retire(st.retire)

	sp = tr.begin(layer+"subscribe", parent, id)
	c0, t0 = cpuTime(), time.Now()
	err = p.tgt.subscribe(st.newSub, st.newHost, f)
	tm.ctlWall[1], tm.ctlCPU[1] = time.Since(t0), cpuTime()-c0
	tr.end(sp)
	if err != nil {
		return tm, fmt.Errorf("subscribe %s: %w", subID(st.newSub), err)
	}
	p.orc.add(st.newSub, st.newRect)

	sp = tr.begin("round", parent, id)
	c0, t0 = cpuTime(), time.Now()
	err = p.tgt.round(st, tr, sp, id)
	tm.roundWall, tm.roundCPU = time.Since(t0), cpuTime()-c0
	tr.end(sp)
	tr.end(parent)
	if err != nil {
		return tm, err
	}
	if err := p.orc.check(st.vals, p.sp.roundEvents, p.snk.log); err != nil {
		return tm, violationf("check: %w", err)
	}
	return tm, nil
}

// runner drives one workload run.
type runner struct {
	sp     spec
	sc     scale
	seed   int64
	traced bool
	tr     *tracer
	// main is the measured pass; digest is its final control-plane state
	// digest (TCP only).
	main   *pass
	digest []byte
	res    result
}

func newRunner(sp spec, sc scale, seed int64, traced bool) *runner {
	return &runner{sp: sp, sc: sc, seed: seed, traced: traced, tr: newTracer(false)}
}

// run performs the set-ups, the warm-up and the measured phase, then the
// passes that check and break down what it measured. The program's own
// observability stays off in every timed pass.
func (r *runner) run() error {
	if err := r.measure(); err != nil {
		return err
	}
	if r.sp.tcp {
		if err := r.crossCheck(); err != nil {
			return err
		}
	}
	if r.traced {
		return r.countersPass()
	}
	return nil
}

// measure is the timed run: sc.setups set-ups (the last one serves the
// rest), warm-up steps, then the measured steps.
func (r *runner) measure() error {
	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)
	for k := 0; k < r.sc.setups; k++ {
		if r.main != nil {
			r.main.tgt.close()
			r.main = nil
		}
		runtime.GC()
		c0, t0 := cpuTime(), time.Now()
		p, err := newPass(r.sp, r.seed, r.sc.population, r.sp.tcp, false)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		r.res.setup = append(r.res.setup, struct{ wall, cpu time.Duration }{time.Since(t0), cpuTime() - c0})
		r.main = p
	}
	p := r.main
	defer p.tgt.close()
	var st step
	for i := 0; i < r.sc.warmSteps; i++ {
		if _, err := p.step(&st, int32(i), r.tr); err != nil {
			return fmt.Errorf("warm-up step %d: %w", i, err)
		}
	}
	r.res.warmSteps = r.sc.warmSteps
	// The live heap is read at this fixed point of the sequence (set-up and
	// warm-up done): at the end of the measured phase it would depend on
	// how many steps the run got through.
	runtime.GC()
	runtime.GC()
	var warm runtime.MemStats
	runtime.ReadMemStats(&warm)
	r.res.liveHeapMB = (float64(warm.HeapAlloc) - float64(base.HeapAlloc)) / (1 << 20)
	d0, fp0 := p.orc.deliveries, p.orc.falsePositives
	var capEvents, capDeliveries int
	runtime.ReadMemStats(&r.res.mem0)
	r.tr.on = r.traced
	start := time.Now()
	for i := 0; ; i++ {
		if r.sc.steps > 0 && i >= r.sc.steps {
			break
		}
		if r.sc.steps == 0 && time.Since(start).Seconds() >= r.sc.seconds {
			break
		}
		id := int32(r.sc.warmSteps + i)
		tm, err := p.step(&st, id, r.tr)
		if err != nil {
			return fmt.Errorf("step %d: %w", id, err)
		}
		r.res.steps = append(r.res.steps, tm)
		r.res.stepDeliv = append(r.res.stepDeliv, len(p.snk.log))
		r.res.events += r.sp.roundEvents
		r.res.ctlOps += 2
		r.res.attempted += r.sp.roundEvents + 2
		r.res.measuredSteps++
		if r.traced && capEvents < captureEvents && capDeliveries < captureDeliveries {
			r.res.capture = append(r.res.capture, capturedRound{
				vals: append([]uint32(nil), st.vals...),
				log:  append([]delivery(nil), p.snk.log...),
			})
			capEvents += r.sp.roundEvents
			capDeliveries += len(p.snk.log)
		}
	}
	r.tr.on = false
	runtime.ReadMemStats(&r.res.mem1)
	r.res.deliveries = p.orc.deliveries - d0
	r.res.falsePositives = p.orc.falsePositives - fp0
	runtime.GC()
	runtime.GC()
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	r.res.retainedKBPerKop = (float64(end.HeapAlloc) - float64(warm.HeapAlloc)) / 1024 / (float64(r.res.attempted) / 1000)

	if t, ok := p.tgt.(*tcpTarget); ok {
		var err error
		if r.digest, err = t.sub.StateDigest(); err != nil {
			return fmt.Errorf("daemon digest: %w", err)
		}
	}
	// Stats after close: the daemon's goroutines have exited by then. The
	// deployment is dropped so the passes after this one do not carry its
	// heap; its oracle stays for the cross-path comparison.
	p.tgt.close()
	r.res.stats = p.tgt.stats()
	p.tgt = nil
	return nil
}

// replay drives a fresh deployment through the same set-up and steps as
// the measured run, checking every round. mark is called with start set
// where the measured steps begin, and with start unset after the last.
func (r *runner) replay(tcp, observe bool, tr *tracer, mark func(p *pass, start bool)) (*pass, error) {
	p, err := newPass(r.sp, r.seed, r.sc.population, tcp, observe)
	if err != nil {
		return nil, fmt.Errorf("replay set-up: %w", err)
	}
	var st step
	total := r.res.warmSteps + r.res.measuredSteps
	for i := 0; i < total; i++ {
		if i == r.res.warmSteps {
			mark(p, true)
		}
		if _, err := p.step(&st, int32(i), tr); err != nil {
			p.tgt.close()
			return nil, fmt.Errorf("replay step %d: %w", i, err)
		}
	}
	mark(p, false)
	return p, nil
}

// crossCheck replays the TCP run in-process: per-subscription delivery
// counts and the control-plane digest must equal the daemon's. In a
// traced run its spans over the measured steps are the facade and fabric
// timings.
func (r *runner) crossCheck() error {
	p, err := r.replay(false, false, r.tr, func(_ *pass, start bool) { r.tr.on = r.traced && start })
	r.tr.on = false
	if err != nil {
		return err
	}
	defer p.tgt.close()
	if err := sameCounts(r.main.orc, p.orc, "the in-process replay"); err != nil {
		return err
	}
	want, err := p.tgt.(*inprocTarget).sys.StateDigest()
	if err != nil {
		return fmt.Errorf("replay digest: %w", err)
	}
	if !bytes.Equal(r.digest, want) {
		return violationf("cross-path: daemon state digest %x differs from the in-process replay's %x", r.digest, want)
	}
	return nil
}

func sameCounts(a, b *oracle, what string) error {
	if len(a.counts) != len(b.counts) {
		return violationf("cross-path: %s created %d subscriptions, the measured run %d", what, len(b.counts), len(a.counts))
	}
	for i := range a.counts {
		if a.counts[i] != b.counts[i] {
			return violationf("cross-path: %s got %d deliveries in the measured run, %d in %s", subID(int32(i)), a.counts[i], b.counts[i], what)
		}
	}
	return nil
}

// countersPass replays the run on the same path with the program's
// observability on, to read the counters it exposes (transport frames
// and bytes, FlowMods, southbound calls, link packets, flow tables,
// reconfiguration latency) around the measured steps. Its timings are not
// used; its deliveries are checked like every other pass.
func (r *runner) countersPass() error {
	p, err := r.replay(r.sp.tcp, true, newTracer(false), func(p *pass, start bool) {
		if start {
			r.res.reg0 = p.tgt.metrics()
		} else {
			r.res.reg1 = p.tgt.metrics()
		}
	})
	if err != nil {
		return err
	}
	p.tgt.close()
	return sameCounts(r.main.orc, p.orc, "the observed replay")
}

// violation is a wrong output of the program: the calls completed but a
// check on what they returned or delivered failed.
type violation struct{ error }

func violationf(format string, a ...any) error { return violation{fmt.Errorf(format, a...)} }
