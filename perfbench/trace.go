package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans live in
// memory for the whole run and are written out when it ends.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	// Step is the step (round or control op group) the call belongs to.
	Step  int32 `json:"step"`
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

// tracer records spans and per-name totals. Disabled, every method is a
// no-op returning -1, so the untraced run pays one branch per call site.
type tracer struct {
	on     bool
	t0     time.Time
	spans  []span
	totals map[string]*total
}

type total struct {
	n   int64
	sum time.Duration
}

func newTracer(on bool) *tracer {
	return &tracer{on: on, t0: time.Now(), totals: make(map[string]*total)}
}

func (t *tracer) begin(name string, parent, step int32) int32 {
	if !t.on {
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Step: step, Start: int64(time.Since(t.t0))})
	return id
}

func (t *tracer) end(id int32) time.Duration {
	if id < 0 {
		return 0
	}
	sp := &t.spans[id]
	sp.End = int64(time.Since(t.t0))
	d := time.Duration(sp.End - sp.Start)
	tt := t.totals[sp.Name]
	if tt == nil {
		tt = &total{}
		t.totals[sp.Name] = tt
	}
	tt.n++
	tt.sum += d
	return d
}

// mean returns the average duration of the calls recorded under name.
func (t *tracer) mean(name string) time.Duration {
	tt := t.totals[name]
	if tt == nil || tt.n == 0 {
		return 0
	}
	return tt.sum / time.Duration(tt.n)
}

func (t *tracer) sum(name string) time.Duration {
	if tt := t.totals[name]; tt != nil {
		return tt.sum
	}
	return 0
}

func (t *tracer) count(name string) int64 {
	if tt := t.totals[name]; tt != nil {
		return tt.n
	}
	return 0
}

// write stores the spans as JSON lines, after one header object naming
// the machine and the run.
func (t *tracer) write(path string, header any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return err
	}
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
