package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call from bench/ into a layer of the program. Calls
// is above one for an aggregate span: the store decorator folds the
// storm's hundreds of thousands of store calls per unit into one span
// whose duration is their summed busy time.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 at the root
	Unit   int    `json:"unit"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder was created
	End    int64  `json:"end_ns"`
	Calls  int64  `json:"calls,omitempty"`
}

// recorder keeps spans in memory until the run ends. Every method is a
// no-op on a nil recorder, which is what the untraced pass holds.
type recorder struct {
	t0    time.Time
	spans []span
	open  []int
	unit  int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) setUnit(u int) {
	if r != nil {
		r.unit = u
	}
}

func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Unit: r.unit, Name: name, Start: int64(time.Since(r.t0))})
	r.open = append(r.open, id)
	return id
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id].End = int64(time.Since(r.t0))
	r.open = r.open[:len(r.open)-1]
}

// aggregate adds a child of the innermost open span that stands for
// calls calls taking busy in total.
func (r *recorder) aggregate(name string, busy time.Duration, calls int64) {
	if r == nil {
		return
	}
	id := r.begin(name)
	r.open = r.open[:len(r.open)-1]
	r.spans[id].End = r.spans[id].Start + int64(busy)
	r.spans[id].Calls = calls
}

// selfByName sums, per span name, each span's duration minus the part
// its children cover — the layer's self time.
func (r *recorder) selfByName() map[string]time.Duration {
	out := map[string]time.Duration{}
	if r == nil {
		return out
	}
	child := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range r.spans {
		out[s.Name] += time.Duration(s.End - s.Start - child[i])
	}
	return out
}

func (r *recorder) write(path string) error {
	if r == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
