package main

import (
	"fmt"
	"runtime"
	"time"

	"pleroma"
	"pleroma/internal/wire"
)

// wireBatch mirrors the client's default coalescing threshold: a
// publisher's block of a round travels as PublishReqs of at most this many
// events.
const wireBatch = 64

// deliverBatchBytes mirrors the server's cap on one KindDeliverBatch
// payload.
const deliverBatchBytes = 256 << 10

// minCodecTime is how long each codec is exercised over the sample, in
// repeated passes, so its per-item figure rests on enough work.
const minCodecTime = 250 * time.Millisecond

// wireFigures are the codec costs measured on the run's own batches.
type wireFigures struct {
	events, deliveries int
	// ns per event (publish) or per delivery (deliver).
	pubEncode, pubDecode, dlvEncode, dlvDecode float64
	decodeAllocsPerEvent                       float64
}

// replayWire encodes and decodes the captured rounds' publish and
// delivery batches with the wire codecs the transport uses, timing each
// codec per event or delivery; every pass over the sample is a span.
func replayWire(capture []capturedRound, dims, pubs int, tr *tracer) (wireFigures, error) {
	var fig wireFigures
	var reqs []wire.PublishReq
	var batches [][]wire.Delivery
	var seq uint64
	for _, c := range capture {
		n := len(c.vals) / dims
		fig.events += n
		for j := 0; j < pubs; j++ {
			lo, hi := j*n/pubs, (j+1)*n/pubs
			for b := lo; b < hi; b += wireBatch {
				e := min(b+wireBatch, hi)
				req := wire.PublishReq{ID: pubID(j), Events: make([]pleroma.Event, 0, e-b)}
				seq++
				req.Seq = seq
				for i := b; i < e; i++ {
					req.Events = append(req.Events, pleroma.Event{Values: c.vals[i*dims : (i+1)*dims]})
				}
				reqs = append(reqs, req)
			}
		}
		if len(c.log) == 0 {
			continue
		}
		ds := make([]wire.Delivery, len(c.log))
		for i, dl := range c.log {
			ds[i] = wire.Delivery{
				SubscriptionID: subID(dl.sub),
				Event:          pleroma.Event{Values: unpack(dl.key, dims, nil)},
				At:             dl.at,
				Latency:        dl.lat,
				FalsePositive:  dl.fp,
			}
		}
		fig.deliveries += len(ds)
		batches = append(batches, ds)
	}
	if fig.events == 0 {
		return fig, fmt.Errorf("wire replay: empty sample")
	}

	// Publish encode: every request appended into one reused buffer.
	encoded := make([][]byte, len(reqs))
	var buf []byte
	var err error
	fig.pubEncode = timePasses(tr, "wire.publish_encode", fig.events, func() {
		for i, req := range reqs {
			buf, err = wire.AppendPublish(buf[:0], req)
			if err != nil {
				return
			}
			if encoded[i] == nil {
				encoded[i] = append([]byte(nil), buf...)
			}
		}
	})
	if err != nil {
		return fig, fmt.Errorf("wire replay: encode publish: %w", err)
	}
	// Deliver encode: each round's deliveries chunked as the server does.
	var frames [][]byte
	for _, ds := range batches {
		for rest := ds; len(rest) > 0; {
			out, n, err := wire.AppendDeliverBatch(nil, rest, deliverBatchBytes)
			if err != nil {
				return fig, fmt.Errorf("wire replay: encode deliveries: %w", err)
			}
			frames = append(frames, out)
			rest = rest[n:]
		}
	}
	if fig.deliveries > 0 {
		fig.dlvEncode = timePasses(tr, "wire.deliver_encode", fig.deliveries, func() {
			for _, ds := range batches {
				for rest := ds; len(rest) > 0; {
					var n int
					buf, n, err = wire.AppendDeliverBatch(buf[:0], rest, deliverBatchBytes)
					if err != nil {
						return
					}
					rest = rest[n:]
				}
			}
		})
		if err != nil {
			return fig, fmt.Errorf("wire replay: encode deliveries: %w", err)
		}
	}

	decodePub := func() {
		for _, b := range encoded {
			if _, err = wire.DecodePublish(b); err != nil {
				return
			}
		}
	}
	decodeDlv := func() {
		for _, b := range frames {
			if _, err = wire.DecodeDeliverBatch(b); err != nil {
				return
			}
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	decodePub()
	decodeDlv()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return fig, fmt.Errorf("wire replay: decode: %w", err)
	}
	fig.decodeAllocsPerEvent = float64(m1.Mallocs-m0.Mallocs) / float64(fig.events)
	fig.pubDecode = timePasses(tr, "wire.publish_decode", fig.events, decodePub)
	if fig.deliveries > 0 {
		fig.dlvDecode = timePasses(tr, "wire.deliver_decode", fig.deliveries, decodeDlv)
	}
	return fig, err
}

// timePasses runs pass repeatedly, each run a span named name, for at
// least minCodecTime and returns the nanoseconds per item.
func timePasses(tr *tracer, name string, items int, pass func()) float64 {
	var total time.Duration
	n := 0
	for total < minCodecTime {
		sp := tr.begin(name, -1, int32(n))
		t0 := time.Now()
		pass()
		total += time.Since(t0)
		tr.end(sp)
		n++
	}
	return float64(total) / float64(n*items)
}
