package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer: a name,
// start and end relative to the tracer's origin, the span that caused
// it (0 for a root) and the operation it belongs to. Spans of one
// request or one measurement phase share Op.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: start and end do nothing but read the clock.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open is a started span; end records it.
type open struct {
	id, parent, op int64
	name           string
	start          time.Time
}

// start opens a span named name under parent. A root span (parent 0)
// starts a new operation whose ID is its own.
func (t *tracer) start(name string, parent, op int64) open {
	s := open{parent: parent, op: op, name: name, start: time.Now()}
	if t != nil {
		s.id = t.ids.Add(1)
		if parent == 0 {
			s.op = s.id
		}
	}
	return s
}

// end closes s and returns its duration.
func (t *tracer) end(s open) time.Duration {
	now := time.Now()
	if t != nil {
		t.mu.Lock()
		t.spans = append(t.spans, span{ID: s.id, Parent: s.parent, Op: s.op, Name: s.name,
			Start: int64(s.start.Sub(t.t0)), End: int64(now.Sub(t.t0))})
		t.mu.Unlock()
	}
	return now.Sub(s.start)
}

// write stores the spans as JSON lines, one span per line, in start
// order.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.sorted() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}

func (t *tracer) sorted() []span {
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// selfStat is the self time summed over every span of one name.
type selfStat struct {
	Name  string
	Count int
	Self  time.Duration
	Total time.Duration
}

// selfTimes derives each span name's self time: a span's duration minus
// the part of its interval that its child spans cover (overlapping
// children counted once). Results are sorted by self time, largest
// first.
func selfTimes(spans []span) []selfStat {
	kids := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	byName := make(map[string]*selfStat)
	for _, s := range spans {
		st := byName[s.Name]
		if st == nil {
			st = &selfStat{Name: s.Name}
			byName[s.Name] = st
		}
		st.Count++
		st.Total += time.Duration(s.End - s.Start)
		st.Self += time.Duration(s.End - s.Start - covered(s.Start, s.End, kids[s.ID]))
	}
	out := make([]selfStat, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// covered is the length of [lo, hi) covered by the union of ivs.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var sum int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			sum += b - a
			cur = b
		}
	}
	return sum
}

// printSelfTimes writes the self-time table the report ends with.
func printSelfTimes(w io.Writer, spans []span) {
	fmt.Fprintf(w, "# self time by span (%d spans)\n", len(spans))
	fmt.Fprintf(w, "#   %-28s %8s %12s %12s\n", "span", "count", "self_ms", "total_ms")
	for _, st := range selfTimes(spans) {
		fmt.Fprintf(w, "#   %-28s %8d %12.3f %12.3f\n", st.Name, st.Count,
			float64(st.Self)/1e6, float64(st.Total)/1e6)
	}
}
