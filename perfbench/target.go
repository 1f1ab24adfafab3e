package main

import (
	"fmt"
	"strconv"

	"pleroma"
)

// target is the system under test as the benchmark drives it: either a
// daemon on loopback reached through two client connections, or an
// in-process System. Each method is one closed-loop call sequence; spans
// for the layer calls inside are recorded on tr.
type target interface {
	subscribe(idx int32, host int, f pleroma.Filter) error
	unsubscribe(idx int32) error
	// round publishes the step's tuples, split in equal blocks over the
	// publishers, and returns once every delivery reached its handler.
	round(st *step, tr *tracer, parent, stepID int32) error
	// metrics snapshots the serving System's registry (empty unless built
	// with observability).
	metrics() pleroma.MetricsSnapshot
	// stats reads the serving System's counters; call it after close.
	stats() pleroma.Stats
	close()
}

// schemaFor builds the workload's schema: attributes a0..a{dims-1}.
func schemaFor(dims int) (*pleroma.Schema, error) {
	attrs := make([]pleroma.Attribute, dims)
	for i := range attrs {
		attrs[i] = pleroma.Attribute{Name: attrName(i), Bits: attrBits}
	}
	return pleroma.NewSchema(attrs...)
}

func attrName(i int) string { return "a" + strconv.Itoa(i) }

func filterFor(r rect, dims int) pleroma.Filter {
	f := pleroma.NewFilter()
	for d := 0; d < dims; d++ {
		f = f.Range(attrName(d), r[d][0], r[d][1])
	}
	return f
}

// subID names subscription idx on the wire and in the System.
func subID(idx int32) string { return "s" + strconv.Itoa(int(idx)) }

func pubID(j int) string { return "p" + strconv.Itoa(j) }

// tcpTarget is a daemon served in-process by WithListener on loopback,
// with one publisher connection (advertising on every host) and one
// subscriber connection (holding every subscription).
type tcpTarget struct {
	sys      *pleroma.System
	pub, sub *pleroma.Client
	snk      *sink
	hosts    []pleroma.HostID
	pubIDs   []string
	dims     int
}

func newTCPTarget(sp spec, observe bool, snk *sink) (*tcpTarget, error) {
	sch, err := schemaFor(sp.dims)
	if err != nil {
		return nil, err
	}
	opts := []pleroma.Option{pleroma.WithListener("127.0.0.1:0")}
	if observe {
		opts = append(opts, pleroma.WithObservability(0))
	}
	sys, err := pleroma.NewSystem(sch, opts...)
	if err != nil {
		return nil, err
	}
	t := &tcpTarget{sys: sys, snk: snk, dims: sp.dims}
	if t.pub, err = pleroma.Dial(sys.ListenAddr(), pleroma.WithDialID("perfbench-pub")); err != nil {
		t.close()
		return nil, err
	}
	if t.sub, err = pleroma.Dial(sys.ListenAddr(), pleroma.WithDialID("perfbench-sub")); err != nil {
		t.close()
		return nil, err
	}
	t.hosts = t.pub.Hosts()
	for j, h := range t.hosts {
		t.pubIDs = append(t.pubIDs, pubID(j))
		if err := t.pub.Advertise(pubID(j), h, pleroma.NewFilter()); err != nil {
			t.close()
			return nil, fmt.Errorf("advertise %s: %w", pubID(j), err)
		}
	}
	return t, nil
}

func (t *tcpTarget) subscribe(idx int32, host int, f pleroma.Filter) error {
	return t.sub.Subscribe(subID(idx), t.hosts[host], f, t.snk.handler(idx))
}

func (t *tcpTarget) unsubscribe(idx int32) error { return t.sub.Unsubscribe(subID(idx)) }

func (t *tcpTarget) round(st *step, tr *tracer, parent, stepID int32) error {
	n := len(st.vals) / t.dims
	p := len(t.pubIDs)
	sp := tr.begin("transport.publish_async", parent, stepID)
	for i := 0; i < n; i++ {
		if err := t.pub.PublishAsync(t.pubIDs[i*p/n], st.tuple(i, t.dims)...); err != nil {
			return fmt.Errorf("publish: %w", err)
		}
	}
	tr.end(sp)
	sp = tr.begin("transport.flush", parent, stepID)
	if err := t.pub.Flush(); err != nil {
		return fmt.Errorf("flush: %w", err)
	}
	tr.end(sp)
	sp = tr.begin("transport.run", parent, stepID)
	if _, err := t.pub.Run(); err != nil {
		return fmt.Errorf("run: %w", err)
	}
	tr.end(sp)
	sp = tr.begin("transport.sync", parent, stepID)
	if err := t.sub.Sync(); err != nil {
		return fmt.Errorf("sync: %w", err)
	}
	tr.end(sp)
	return nil
}

func (t *tcpTarget) metrics() pleroma.MetricsSnapshot { return t.sys.Metrics() }

func (t *tcpTarget) stats() pleroma.Stats { return t.sys.Stats() }

func (t *tcpTarget) close() {
	if t.pub != nil {
		t.pub.Close()
	}
	if t.sub != nil {
		t.sub.Close()
	}
	t.sys.Close()
}

// inprocTarget calls an in-process System directly: one Publisher per
// host, PublishBatch per block, then System.Run.
type inprocTarget struct {
	sys   *pleroma.System
	pubs  []*pleroma.Publisher
	snk   *sink
	hosts []pleroma.HostID
	dims  int
	tups  [][]uint32
}

func newInprocTarget(sp spec, observe bool, snk *sink) (*inprocTarget, error) {
	sch, err := schemaFor(sp.dims)
	if err != nil {
		return nil, err
	}
	var opts []pleroma.Option
	if observe {
		opts = append(opts, pleroma.WithObservability(0))
	}
	sys, err := pleroma.NewSystem(sch, opts...)
	if err != nil {
		return nil, err
	}
	t := &inprocTarget{sys: sys, snk: snk, hosts: sys.Hosts(), dims: sp.dims}
	for j, h := range t.hosts {
		p, err := sys.NewPublisher(pubID(j), h)
		if err != nil {
			sys.Close()
			return nil, err
		}
		if err := p.Advertise(pleroma.NewFilter()); err != nil {
			sys.Close()
			return nil, fmt.Errorf("advertise %s: %w", pubID(j), err)
		}
		t.pubs = append(t.pubs, p)
	}
	return t, nil
}

func (t *inprocTarget) subscribe(idx int32, host int, f pleroma.Filter) error {
	return t.sys.Subscribe(subID(idx), t.hosts[host], f, t.snk.handler(idx))
}

func (t *inprocTarget) unsubscribe(idx int32) error { return t.sys.Unsubscribe(subID(idx)) }

func (t *inprocTarget) round(st *step, tr *tracer, parent, stepID int32) error {
	n := len(st.vals) / t.dims
	t.tups = t.tups[:0]
	for i := 0; i < n; i++ {
		t.tups = append(t.tups, st.tuple(i, t.dims))
	}
	p := len(t.pubs)
	sp := tr.begin("facade.publish_batch", parent, stepID)
	for j, pub := range t.pubs {
		if err := pub.PublishBatch(t.tups[j*n/p : (j+1)*n/p]...); err != nil {
			return fmt.Errorf("publish %s: %w", pubID(j), err)
		}
	}
	tr.end(sp)
	sp = tr.begin("fabric.run", parent, stepID)
	t.sys.Run()
	tr.end(sp)
	return nil
}

func (t *inprocTarget) metrics() pleroma.MetricsSnapshot { return t.sys.Metrics() }

func (t *inprocTarget) stats() pleroma.Stats { return t.sys.Stats() }

func (t *inprocTarget) close() { t.sys.Close() }
