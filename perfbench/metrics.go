package main

import (
	"math"
	"slices"
	"time"

	"pleroma"
)

// metric is one reported figure.
type metric struct {
	name  string
	value float64
	unit  string
}

// groups is how many contiguous slices of the measured steps the rates
// are taken over; a rate is the median of the slices' rates, so one slice
// hit by outside interference does not move it.
const groups = 10

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the q-quantile of ds by linear interpolation between
// closest ranks.
func quantile(ds []time.Duration, q float64) time.Duration {
	s := slices.Clone(ds)
	slices.Sort(s)
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + time.Duration((pos-float64(lo))*float64(s[hi]-s[lo]))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// endToEnd derives the user-visible metrics from an untraced run. The
// gated ones are rates and tails per process CPU time, which CPU steal on
// a shared host does not move; info holds their wall-clock twins and the
// heap retained per operation, printed for reading.
func endToEnd(sp spec, res *result) (gated, info []metric) {
	var setupCPU, setupWall []float64
	for _, d := range res.setup {
		setupWall = append(setupWall, d.wall.Seconds())
		setupCPU = append(setupCPU, d.cpu.Seconds())
	}
	var roundWall, roundCPU, ctlWall, ctlCPU []time.Duration
	for _, tm := range res.steps {
		roundWall = append(roundWall, tm.roundWall)
		roundCPU = append(roundCPU, tm.roundCPU)
		ctlWall = append(ctlWall, tm.ctlWall[:]...)
		ctlCPU = append(ctlCPU, tm.ctlCPU[:]...)
	}
	n := len(res.steps)
	k := min(groups, n)
	var evCPU, dlCPU, ctlRateCPU, evWall, dlWall, ctlRateWall []float64
	for g := 0; g < k; g++ {
		lo, hi := g*n/k, (g+1)*n/k
		var rw, rc, cw, cc time.Duration
		deliv := 0
		for i := lo; i < hi; i++ {
			tm := res.steps[i]
			rw += tm.roundWall
			rc += tm.roundCPU
			cw += tm.ctlWall[0] + tm.ctlWall[1]
			cc += tm.ctlCPU[0] + tm.ctlCPU[1]
			deliv += res.stepDeliv[i]
		}
		events, ops := float64((hi-lo)*sp.roundEvents), float64(2*(hi-lo))
		evCPU = append(evCPU, events/rc.Seconds())
		dlCPU = append(dlCPU, float64(deliv)/rc.Seconds())
		ctlRateCPU = append(ctlRateCPU, ops/cc.Seconds())
		evWall = append(evWall, events/(rw+cw).Seconds())
		dlWall = append(dlWall, float64(deliv)/(rw+cw).Seconds())
		ctlRateWall = append(ctlRateWall, ops/(rw+cw).Seconds())
	}
	gated = []metric{
		{"setup_s", median(setupCPU), "s"},
		{"events_per_cpu_s", median(evCPU), "1/s"},
		{"deliveries_per_cpu_s", median(dlCPU), "1/s"},
		{"round_cpu_p50_ms", ms(quantile(roundCPU, 0.50)), "ms"},
		{"round_cpu_p90_ms", ms(quantile(roundCPU, 0.90)), "ms"},
		{"control_ops_per_cpu_s", median(ctlRateCPU), "1/s"},
		{"control_cpu_p50_ms", ms(quantile(ctlCPU, 0.50)), "ms"},
		{"control_cpu_p90_ms", ms(quantile(ctlCPU, 0.90)), "ms"},
		{"live_heap_mb", res.liveHeapMB, "MB"},
	}
	info = []metric{
		{"setup_wall_s", median(setupWall), "s"},
		{"events_per_s", median(evWall), "1/s"},
		{"deliveries_per_s", median(dlWall), "1/s"},
		{"round_p50_ms", ms(quantile(roundWall, 0.50)), "ms"},
		{"round_p90_ms", ms(quantile(roundWall, 0.90)), "ms"},
		{"control_ops_per_s", median(ctlRateWall), "1/s"},
		{"control_p50_ms", ms(quantile(ctlWall, 0.50)), "ms"},
		{"control_p90_ms", ms(quantile(ctlWall, 0.90)), "ms"},
		{"retained_kb_per_kop", res.retainedKBPerKop, "KB"},
	}
	return gated, info
}

// Registry metric names the traced run reads (see internal/obs).
const (
	mFramesRecv    = "pleroma_transport_frames_recv_total"
	mBytesRecv     = "pleroma_transport_bytes_recv_total"
	mBytesSent     = "pleroma_transport_bytes_sent_total"
	mFlushes       = "pleroma_transport_flushes_total"
	mDeliverBatch  = "pleroma_transport_deliver_batch_events"
	mLinkPackets   = "pleroma_link_packets_total"
	mHostDeliv     = "pleroma_host_deliveries_total"
	mFlowMods      = "pleroma_flowmods_total"
	mSouthbound    = "pleroma_southbound_calls_total"
	mFlowOccupancy = "pleroma_flow_table_occupancy"
	mReconfig      = "pleroma_reconfig_duration_seconds"
)

func delta(a, b pleroma.MetricsSnapshot, name string) float64 { return b.Total(name) - a.Total(name) }

// histDelta merges every label series of a histogram family and returns
// b minus a.
func histDelta(a, b pleroma.MetricsSnapshot, name string) pleroma.HistogramSnapshot {
	merged := func(s pleroma.MetricsSnapshot) pleroma.HistogramSnapshot {
		var out pleroma.HistogramSnapshot
		for _, f := range s.Families {
			if f.Name != name {
				continue
			}
			for _, smp := range f.Samples {
				h := smp.Hist
				if h == nil {
					continue
				}
				if out.Bounds == nil {
					out.Bounds = h.Bounds
					out.Counts = make([]uint64, len(h.Counts))
				}
				for i := range out.Counts {
					if i < len(h.Counts) {
						out.Counts[i] += h.Counts[i]
					}
				}
				out.Count += h.Count
				out.Sum += h.Sum
			}
		}
		return out
	}
	x, y := merged(a), merged(b)
	if x.Bounds == nil {
		return y
	}
	for i := range y.Counts {
		y.Counts[i] -= x.Counts[i]
	}
	y.Count -= x.Count
	y.Sum -= x.Sum
	return y
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics lists the per-layer metrics in report order, with units.
// A metric a workload has no path for (the transport in-process) reads 0.
var layerMetrics = []struct{ name, unit string }{
	{"transport.publish_async_us", "us"},
	{"transport.flush_ms", "ms"},
	{"transport.run_ms", "ms"},
	{"transport.sync_ms", "ms"},
	{"transport.control_overhead_us", "us"},
	{"transport.events_per_publish_frame", "count"},
	{"transport.deliveries_per_batch_frame", "count"},
	{"transport.bytes_per_event", "B"},
	{"transport.flushes_per_round", "count"},
	{"wire.publish_encode_ns", "ns"},
	{"wire.publish_decode_ns", "ns"},
	{"wire.deliver_encode_ns", "ns"},
	{"wire.deliver_decode_ns", "ns"},
	{"wire.decode_allocs_per_event", "count"},
	{"facade.admit_us_per_event", "us"},
	{"facade.subscribe_ms", "ms"},
	{"facade.unsubscribe_ms", "ms"},
	{"facade.exact_delivery_share", "share"},
	{"fabric.run_us_per_event", "us"},
	{"fabric.run_us_per_delivery", "us"},
	{"netem.link_packets_per_event", "count"},
	{"netem.host_copies_per_event", "count"},
	{"openflow.flow_entries", "count"},
	{"core.flowmods_per_op", "count"},
	{"core.southbound_calls_per_op", "count"},
	{"core.reconfig_p50_ms", "ms"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.gc_cycles_per_kop", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.retained_kb_per_kop", "KB"},
	{"ledger.call_coverage", "share"},
	{"ledger.layer_coverage", "share"},
}

// ledger is the traced run's account of the mean round.
type ledger struct {
	round             time.Duration
	calls             []stage // the client calls a round is made of
	layers            []stage // the same work measured layer by layer
	callSum, layerSum time.Duration
}

type stage struct {
	name string
	d    time.Duration
}

// perLayer derives the per-layer metrics from a traced run. Over TCP the
// facade and fabric figures come from the in-process replay of the same
// steps; in-process they come from the run itself.
func perLayer(sp spec, res *result, tr *tracer, wf wireFigures) ([]metric, ledger) {
	events := float64(res.events)
	rounds := float64(len(res.steps))
	ops := float64(res.ctlOps)
	deliveries := float64(res.deliveries)
	var roundWall time.Duration
	for _, tm := range res.steps {
		roundWall += tm.roundWall
	}
	perRound := func(d time.Duration) time.Duration { return time.Duration(float64(d) / rounds) }
	a, b := res.reg0, res.reg1
	v := make(map[string]float64)

	admit, run := tr.sum("facade.publish_batch"), tr.sum("fabric.run")
	var lg ledger
	lg.round = perRound(roundWall)
	if sp.tcp {
		for _, name := range []string{"transport.publish_async", "transport.flush", "transport.run", "transport.sync"} {
			lg.calls = append(lg.calls, stage{name, perRound(tr.sum(name))})
		}
		meanOf := func(x, y string) time.Duration {
			return (tr.sum(x) + tr.sum(y)) / time.Duration(max(1, tr.count(x)+tr.count(y)))
		}
		// Every Run, Sync and control op is one request frame; the rest of
		// what the daemon read in the measured phase are publish frames.
		pubFrames := delta(a, b, mFramesRecv) - 2*rounds - ops
		batch := histDelta(a, b, mDeliverBatch)
		v["transport.publish_async_us"] = us(tr.sum("transport.publish_async")) / events
		v["transport.flush_ms"] = ms(tr.mean("transport.flush"))
		v["transport.run_ms"] = ms(tr.mean("transport.run"))
		v["transport.sync_ms"] = ms(tr.mean("transport.sync"))
		v["transport.control_overhead_us"] = us(meanOf("transport.subscribe", "transport.unsubscribe") - meanOf("facade.subscribe", "facade.unsubscribe"))
		v["transport.events_per_publish_frame"] = ratio(events, pubFrames)
		v["transport.deliveries_per_batch_frame"] = ratio(float64(batch.Sum), float64(batch.Count))
		v["transport.bytes_per_event"] = (delta(a, b, mBytesRecv) + delta(a, b, mBytesSent)) / events
		v["transport.flushes_per_round"] = delta(a, b, mFlushes) / rounds
		lg.layers = []stage{
			{"wire.publish_encode+decode", time.Duration((wf.pubEncode + wf.pubDecode) * events / rounds)},
			{"facade.admit (replay)", perRound(admit)},
			{"fabric.run (replay)", perRound(run)},
			{"wire.deliver_encode+decode", time.Duration((wf.dlvEncode + wf.dlvDecode) * deliveries / rounds)},
		}
	} else {
		lg.calls = []stage{{"facade.publish_batch", perRound(admit)}, {"fabric.run", perRound(run)}}
		lg.layers = lg.calls
	}
	for _, s := range lg.calls {
		lg.callSum += s.d
	}
	for _, s := range lg.layers {
		lg.layerSum += s.d
	}

	v["wire.publish_encode_ns"] = wf.pubEncode
	v["wire.publish_decode_ns"] = wf.pubDecode
	v["wire.deliver_encode_ns"] = wf.dlvEncode
	v["wire.deliver_decode_ns"] = wf.dlvDecode
	v["wire.decode_allocs_per_event"] = wf.decodeAllocsPerEvent

	v["facade.admit_us_per_event"] = us(admit) / events
	v["facade.subscribe_ms"] = ms(tr.mean("facade.subscribe"))
	v["facade.unsubscribe_ms"] = ms(tr.mean("facade.unsubscribe"))
	v["facade.exact_delivery_share"] = 1 - ratio(float64(res.falsePositives), deliveries)
	v["fabric.run_us_per_event"] = us(run) / events
	v["fabric.run_us_per_delivery"] = ratio(us(run), deliveries)
	v["netem.link_packets_per_event"] = delta(a, b, mLinkPackets) / events
	v["netem.host_copies_per_event"] = delta(a, b, mHostDeliv) / events
	v["openflow.flow_entries"] = b.Total(mFlowOccupancy)

	reconf := histDelta(a, b, mReconfig)
	v["core.flowmods_per_op"] = delta(a, b, mFlowMods) / ops
	v["core.southbound_calls_per_op"] = delta(a, b, mSouthbound) / ops
	v["core.reconfig_p50_ms"] = ms(reconf.Quantile(0.5))

	allOps := events + ops
	m0, m1 := &res.mem0, &res.mem1
	gcs := float64(m1.NumGC - m0.NumGC)
	v["runtime.allocs_per_op"] = float64(m1.Mallocs-m0.Mallocs) / allOps
	v["runtime.alloc_bytes_per_op"] = float64(m1.TotalAlloc-m0.TotalAlloc) / allOps
	v["runtime.gc_cycles_per_kop"] = gcs / (allOps / 1000)
	v["runtime.gc_pause_ms"] = ratio(ms(time.Duration(m1.PauseTotalNs-m0.PauseTotalNs)), gcs)
	v["runtime.retained_kb_per_kop"] = res.retainedKBPerKop

	v["ledger.call_coverage"] = ratio(float64(lg.callSum), float64(lg.round))
	v["ledger.layer_coverage"] = ratio(float64(lg.layerSum), float64(lg.round))

	out := make([]metric, len(layerMetrics))
	for i, lm := range layerMetrics {
		out[i] = metric{lm.name, v[lm.name], lm.unit}
	}
	return out, lg
}
