package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
)

// maxDims bounds the schema width the benchmark generates; a tuple packs
// into one uint64 key at 16 bits per attribute.
const maxDims = 4

// attrBits is every attribute's domain width: values in [0, 1023], the
// paper's evaluation domain.
const attrBits = 10

const domain = 1 << attrBits

// spec is one workload's make-up. The benchmark generates every input
// from the seed with its own generator, so a change to the program's
// workload package cannot move the benchmark's inputs.
type spec struct {
	name string
	// tcp drives the system through a daemon served in-process on
	// loopback (one publisher and one subscriber connection); otherwise
	// the in-process System is called directly.
	tcp bool
	// dims is the number of schema attributes.
	dims int
	// zipf draws subscriptions and events around hotspot centres with
	// zipfian popularity; otherwise both are uniform.
	zipf bool
	// population is the number of live subscriptions, constant after set-up.
	population int
	// roundEvents is the events published per round, split into equal
	// blocks over the eight publishers (one per testbed host).
	roundEvents int
	// widthMin/widthMax bound a subscription's per-attribute range width as
	// a fraction of the domain.
	widthMin, widthMax float64
	// warmSteps run before timing starts so caches, pools and table sizes
	// have settled.
	warmSteps int
	// setups is how many times a run builds the deployment anew;
	// setup_s is their median and the last one serves the measured phase.
	setups int
}

// Zipfian model parameters (the paper's Section 6.1 shape).
const (
	hotspots   = 7
	zipfSkew   = 1.5
	zipfSpread = 0.05
)

var workloads = []spec{
	// The north-star path: transport, wire and admission carry about half
	// the cost, sim and netem the rest, core stays nearly idle.
	{
		name:        "tcp-stream",
		tcp:         true,
		dims:        2,
		population:  48,
		roundEvents: 512,
		widthMin:    0.05, widthMax: 0.25,
		warmSteps: 150,
		setups:    7,
	},
	// Fabric fan-out: forwarding in sim, netem and openflow plus the
	// facade's per-host demux do nearly all the work; transport and wire do
	// none, so a transport change must not move it.
	{
		name:        "inproc-fanout",
		dims:        2,
		zipf:        true,
		population:  320,
		roundEvents: 256,
		widthMin:    0.02, widthMax: 0.10,
		warmSteps: 150,
		setups:    5,
	},
	// Control-plane churn: Algorithm 1, dz set algebra and flow-table
	// writes dominate, interleaved with lookups; small rounds make the
	// round figures a latency rather than a restatement of throughput.
	{
		name:        "tcp-churn",
		tcp:         true,
		dims:        2,
		population:  1000,
		roundEvents: 16,
		widthMin:    0.02, widthMax: 0.10,
		warmSteps: 300,
		setups:    3,
	},
}

func lookupSpec(name string) (spec, error) {
	for _, s := range workloads {
		if s.name == name {
			return s, nil
		}
	}
	names := make([]string, len(workloads))
	for i, s := range workloads {
		names[i] = s.name
	}
	return spec{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// rect is a subscription hyperrectangle: closed [lo, hi] per attribute.
type rect [maxDims][2]uint32

func (r *rect) contains(vals []uint32) bool {
	for i, v := range vals {
		if v < r[i][0] || v > r[i][1] {
			return false
		}
	}
	return true
}

// pack folds a tuple into one comparable key.
func pack(vals []uint32) uint64 {
	var k uint64
	for i, v := range vals {
		k |= uint64(v) << (16 * uint(i))
	}
	return k
}

func unpack(k uint64, dims int, dst []uint32) []uint32 {
	dst = dst[:0]
	for i := 0; i < dims; i++ {
		dst = append(dst, uint32(k>>(16*uint(i)))&0xffff)
	}
	return dst
}

// step is one unit of measured work: one subscription moved (unsubscribe
// then a replacement subscribe with a fresh rectangle and host) followed
// by one round of events.
type step struct {
	retire  int32 // subscription index to unsubscribe
	newSub  int32 // index of the replacement subscription
	newRect rect
	newHost int // host index in [0, hosts)
	// vals holds roundEvents tuples back to back, dims values each.
	vals []uint32
}

func (st *step) tuple(i, dims int) []uint32 { return st.vals[i*dims : (i+1)*dims : (i+1)*dims] }

// generator turns (workload, seed) into the deterministic sequence of
// set-up subscriptions and steps. Two generators with the same seed
// produce the same sequence, which is how the in-process replay re-runs a
// TCP run without storing its inputs.
type generator struct {
	sp    spec
	hosts int
	r     *rand.Rand
	zipf  *rand.Zipf
	hot   [hotspots][maxDims]uint32
	// live lists the indices of the current subscriptions; next is the
	// index the next subscription gets.
	live []int32
	next int32
}

func newGenerator(sp spec, seed int64, hosts int) *generator {
	g := &generator{sp: sp, hosts: hosts, r: rand.New(rand.NewSource(seed ^ salt(sp.name)))}
	if sp.zipf {
		// The hotspot centres are part of the workload's definition, drawn
		// from its name alone: the seed varies the draws around them, not
		// the geometry, so runs with different seeds measure the same
		// fan-out.
		hr := rand.New(rand.NewSource(salt(sp.name)))
		for i := range g.hot {
			for d := 0; d < sp.dims; d++ {
				g.hot[i][d] = uint32(hr.Intn(domain))
			}
		}
		g.zipf = rand.NewZipf(g.r, zipfSkew, 1, hotspots-1)
	}
	return g
}

func salt(name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return int64(h.Sum64())
}

func clampDomain(v float64) uint32 {
	switch {
	case v < 0:
		return 0
	case v > domain-1:
		return domain - 1
	}
	return uint32(v)
}

func (g *generator) around(c uint32) uint32 {
	return clampDomain(float64(c) + g.r.NormFloat64()*zipfSpread*domain)
}

func (g *generator) rect() rect {
	var r rect
	var centre *[maxDims]uint32
	if g.zipf != nil {
		centre = &g.hot[g.zipf.Uint64()]
	}
	for d := 0; d < g.sp.dims; d++ {
		width := math.Max(1, (g.sp.widthMin+g.r.Float64()*(g.sp.widthMax-g.sp.widthMin))*domain)
		var mid float64
		if centre != nil {
			mid = float64(g.around(centre[d]))
		} else {
			mid = g.r.Float64() * (domain - 1)
		}
		lo, hi := clampDomain(mid-width/2), clampDomain(mid+width/2)
		r[d] = [2]uint32{lo, hi}
	}
	return r
}

func (g *generator) event(dst []uint32) {
	if g.zipf != nil {
		c := &g.hot[g.zipf.Uint64()]
		for d := range dst {
			dst[d] = g.around(c[d])
		}
		return
	}
	for d := range dst {
		dst[d] = uint32(g.r.Intn(domain))
	}
}

// initial draws one subscription of the set-up population.
func (g *generator) initial() (idx int32, r rect, host int) {
	idx = g.next
	g.next++
	g.live = append(g.live, idx)
	return idx, g.rect(), g.r.Intn(g.hosts)
}

// nextStep fills st with the next step, reusing its tuple buffer.
func (g *generator) nextStep(st *step) {
	slot := g.r.Intn(len(g.live))
	st.retire = g.live[slot]
	st.newSub = g.next
	g.next++
	g.live[slot] = st.newSub
	st.newRect = g.rect()
	st.newHost = g.r.Intn(g.hosts)
	n := g.sp.roundEvents * g.sp.dims
	if cap(st.vals) < n {
		st.vals = make([]uint32, n)
	}
	st.vals = st.vals[:n]
	for i := 0; i < g.sp.roundEvents; i++ {
		g.event(st.tuple(i, g.sp.dims))
	}
}
