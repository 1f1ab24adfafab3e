package main

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"pleroma"
)

// delivery is one logged handler call. Handlers only append these; all
// checking happens between rounds, outside the timed sections.
type delivery struct {
	sub     int32
	key     uint64
	fp      bool
	hops    uint16
	at, lat time.Duration
}

// sink collects the deliveries of one step. Over TCP the subscriber
// client's reader goroutine appends and the runner reads only after the
// round's Sync returned, which orders the two.
type sink struct{ log []delivery }

func (s *sink) handler(sub int32) func(pleroma.Delivery) {
	return func(d pleroma.Delivery) {
		s.log = append(s.log, delivery{
			sub:  sub,
			key:  pack(d.Event.Values),
			fp:   d.FalsePositive,
			hops: uint16(d.Hops),
			at:   d.At,
			lat:  d.Latency,
		})
	}
}

type pair struct {
	sub int32
	key uint64
}

func cmpPair(a, b pair) int {
	if c := cmp.Compare(a.sub, b.sub); c != 0 {
		return c
	}
	return cmp.Compare(a.key, b.key)
}

// oracle is the benchmark's own model of the deployment: the rectangle of
// every subscription it created and which are live. From that and the
// published tuples it derives, by plain integer comparison, which
// (subscription, tuple) pairs the system must deliver.
type oracle struct {
	dims int
	// hopsKnown is set where deliveries carry hop counts (in-process).
	hopsKnown bool
	rects     []rect
	live      []bool
	// liveIdx/liveRects are the live subscriptions, packed for the
	// per-round scan; pos maps a subscription to its slot.
	liveIdx   []int32
	liveRects []rect
	pos       []int32
	// counts is every subscription's delivery total over the run (false
	// positives included), compared across paths.
	counts []uint64

	deliveries, falsePositives uint64

	exact, want, all []pair
	pub              []uint64
	tup              []uint32
}

func newOracle(dims int, hopsKnown bool) *oracle {
	return &oracle{dims: dims, hopsKnown: hopsKnown, tup: make([]uint32, 0, maxDims)}
}

func (o *oracle) add(idx int32, r rect) {
	for int(idx) >= len(o.rects) {
		o.rects = append(o.rects, rect{})
		o.live = append(o.live, false)
		o.pos = append(o.pos, -1)
		o.counts = append(o.counts, 0)
	}
	o.rects[idx] = r
	o.live[idx] = true
	o.pos[idx] = int32(len(o.liveIdx))
	o.liveIdx = append(o.liveIdx, idx)
	o.liveRects = append(o.liveRects, r)
}

func (o *oracle) retire(idx int32) {
	p := o.pos[idx]
	last := int32(len(o.liveIdx) - 1)
	moved := o.liveIdx[last]
	o.liveIdx[p], o.liveRects[p] = moved, o.liveRects[last]
	o.pos[moved] = p
	o.liveIdx, o.liveRects = o.liveIdx[:last], o.liveRects[:last]
	o.live[idx] = false
	o.pos[idx] = -1
}

// check verifies one step's deliveries against the round's published
// tuples (n tuples of o.dims values in vals):
//   - every delivery goes to a live subscription, has simulated latency
//     > 0 and, where known, at least one hop;
//   - a delivery is flagged false positive exactly when its tuple lies
//     outside the subscription's rectangle;
//   - each subscription's multiset of exact deliveries equals the
//     oracle's matching tuples;
//   - a subscription that receives a tuple receives it exactly as often
//     as it was published (identical tuples share a dz, so they take the
//     same path), which also rules out duplicates.
func (o *oracle) check(vals []uint32, n int, log []delivery) error {
	d := o.dims
	o.pub = o.pub[:0]
	for i := 0; i < n; i++ {
		o.pub = append(o.pub, pack(vals[i*d:(i+1)*d]))
	}
	slices.Sort(o.pub)
	o.exact, o.all = o.exact[:0], o.all[:0]
	for _, dl := range log {
		if dl.sub < 0 || int(dl.sub) >= len(o.live) || !o.live[dl.sub] {
			return fmt.Errorf("delivery of %v to subscription s%d, which is not live", unpack(dl.key, d, o.tup), dl.sub)
		}
		if dl.lat <= 0 {
			return fmt.Errorf("delivery to s%d has simulated latency %v", dl.sub, dl.lat)
		}
		if o.hopsKnown && dl.hops < 1 {
			return fmt.Errorf("delivery to s%d reports %d hops", dl.sub, dl.hops)
		}
		o.tup = unpack(dl.key, d, o.tup)
		inside := o.rects[dl.sub].contains(o.tup)
		if dl.fp == inside {
			return fmt.Errorf("delivery of %v to s%d flagged false positive=%v, but the tuple is inside=%v its rectangle", o.tup, dl.sub, dl.fp, inside)
		}
		p := pair{dl.sub, dl.key}
		o.all = append(o.all, p)
		if !dl.fp {
			o.exact = append(o.exact, p)
		}
	}
	o.want = o.want[:0]
	for i := 0; i < n; i++ {
		ev := vals[i*d : (i+1)*d]
		key := pack(ev)
		for j := range o.liveRects {
			if o.liveRects[j].contains(ev) {
				o.want = append(o.want, pair{o.liveIdx[j], key})
			}
		}
	}
	slices.SortFunc(o.exact, cmpPair)
	slices.SortFunc(o.want, cmpPair)
	if i, ok := firstDiff(o.exact, o.want); !ok {
		return o.describeMismatch(i)
	}
	slices.SortFunc(o.all, cmpPair)
	for i := 0; i < len(o.all); {
		j := i + 1
		for j < len(o.all) && o.all[j] == o.all[i] {
			j++
		}
		lo, _ := slices.BinarySearch(o.pub, o.all[i].key)
		hi, _ := slices.BinarySearch(o.pub, o.all[i].key+1)
		if j-i != hi-lo {
			return fmt.Errorf("s%d received %v %d times, published %d times", o.all[i].sub, unpack(o.all[i].key, d, o.tup), j-i, hi-lo)
		}
		o.counts[o.all[i].sub] += uint64(j - i)
		i = j
	}
	o.deliveries += uint64(len(o.all))
	o.falsePositives += uint64(len(o.all) - len(o.exact))
	return nil
}

func firstDiff(a, b []pair) (int, bool) {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i, false
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b)), false
	}
	return 0, true
}

func (o *oracle) describeMismatch(i int) error {
	switch {
	case i < len(o.want) && (i >= len(o.exact) || cmpPair(o.want[i], o.exact[i]) < 0):
		w := o.want[i]
		return fmt.Errorf("s%d did not receive matching tuple %v (exact deliveries %d, oracle %d)", w.sub, unpack(w.key, o.dims, o.tup), len(o.exact), len(o.want))
	default:
		e := o.exact[i]
		return fmt.Errorf("s%d received %v as an exact match the oracle does not expect (exact deliveries %d, oracle %d)", e.sub, unpack(e.key, o.dims, o.tup), len(o.exact), len(o.want))
	}
}
