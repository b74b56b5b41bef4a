package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer's public function, recorded by a shim
// in this directory. Write-class spans of one request share the op id the
// request already carries in its value slot; a span with ID 0 (a read, an
// fsync that commits a whole group) is joined to its request by containment.
type span struct {
	Name  string `json:"name"` // "<layer>.<what>", layer = module name
	ID    int64  `json:"id,omitempty"`
	Write bool   `json:"write,omitempty"`
	Start int64  `json:"start_ns"` // since the tracer's epoch
	End   int64  `json:"end_ns"`
}

func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// tracer keeps spans in memory until the benchmark ends. A nil *tracer is the
// untraced configuration: shim constructors return the bare inner value for
// it, so the untraced mirror runs exactly the product's wiring.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

// spanCap is the room a tracer starts with: growing a slice of spans by
// doubling, while the calls being traced wait on the lock, would put the
// tracer's own cost into the spans.
const spanCap = 1 << 18

func newTracer() *tracer { return &tracer{epoch: time.Now(), spans: make([]span, 0, spanCap)} }

// now and add are no-ops on a nil tracer, so a driver can call them
// unconditionally.
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

func (t *tracer) add(name string, id int64, write bool, start int64) {
	if t == nil {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, ID: id, Write: write, Start: start, End: end})
	t.mu.Unlock()
}

func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans
	t.spans = make([]span, 0, spanCap)
	return s
}

// writeTrace stores the spans where a reader can load them into a viewer.
func writeTrace(path string, spans []span) error {
	b, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// rootBreakdown is one request of a traced run: the client's span and, for
// each layer, the self time that layer's spans spent inside it.
type rootBreakdown struct {
	write bool
	total int64
	self  map[string]int64
}

// decomposition is the per-request breakdown of a traced run.
type decomposition struct {
	roots []rootBreakdown
	dur   map[string][]int64 // span name + ":w" or ":r" (its request's class) -> durations, clipped to the request
}

// decompose joins each non-root span to the root that caused it and charges
// every instant of a root to the innermost span covering it — the one that
// started last, which for nested spans is the deepest and for two followers
// syncing at once is one of them, never both. A layer's self time inside a
// request is what its spans were charged: a span's duration minus the part
// its children cover. The self times of a request add up to its duration
// exactly. The driver keeps one reader and one writer in flight, which is
// what makes the join unique: an ID-less span belongs to the one root of its
// class whose interval contains its start.
func decompose(spans []span, rootName string) decomposition {
	d := decomposition{dur: map[string][]int64{}}
	var roots, rest []span
	for _, s := range spans {
		if s.Name == rootName {
			roots = append(roots, s)
		} else {
			rest = append(rest, s)
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].Start < roots[j].Start })
	byID := map[int64]int{}
	var reads, writes []int // root indices by class, in start order
	for i, r := range roots {
		if r.ID != 0 {
			byID[r.ID] = i
		}
		if r.Write {
			writes = append(writes, i)
		} else {
			reads = append(reads, i)
		}
	}
	containing := func(class []int, at int64) (int, bool) {
		k := sort.Search(len(class), func(k int) bool { return roots[class[k]].Start > at }) - 1
		if k < 0 || roots[class[k]].End < at {
			return 0, false
		}
		return class[k], true
	}
	children := make([][]span, len(roots))
	for _, s := range rest {
		var ri int
		var ok bool
		switch {
		case s.ID != 0:
			ri, ok = byID[s.ID]
		case s.Write:
			ri, ok = containing(writes, s.Start)
		default:
			ri, ok = containing(reads, s.Start)
		}
		if !ok {
			continue // warm-up traffic, preload, or work that outlived its request
		}
		r := roots[ri]
		s.Start, s.End = max(s.Start, r.Start), min(s.End, r.End)
		if s.End <= s.Start {
			continue // began after the client already had its reply (a follower's late apply)
		}
		children[ri] = append(children[ri], s)
	}
	for ri, r := range roots {
		nodes := append([]span{r}, children[ri]...)
		var bounds []int64
		for _, n := range nodes {
			bounds = append(bounds, n.Start, n.End)
			class := ":r"
			if r.Write {
				class = ":w"
			}
			d.dur[n.Name+class] = append(d.dur[n.Name+class], n.End-n.Start)
		}
		sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
		perLayer := map[string]int64{}
		for i := 1; i < len(bounds); i++ {
			from, to := bounds[i-1], bounds[i]
			if from == to {
				continue
			}
			inner := nodes[0] // the root covers every segment
			for _, n := range nodes[1:] {
				if n.Start <= from && to <= n.End && (n.Start > inner.Start || (n.Start == inner.Start && n.End < inner.End)) {
					inner = n
				}
			}
			perLayer[inner.layer()] += to - from
		}
		d.roots = append(d.roots, rootBreakdown{write: r.Write, total: r.End - r.Start, self: perLayer})
	}
	return d
}

// selfP50 is the median self time (µs) of a layer over the requests of one
// class; a request the layer did not touch counts as zero.
func (d decomposition) selfP50(layer string, write bool) float64 {
	var v []int64
	for _, r := range d.roots {
		if r.write == write {
			v = append(v, r.self[layer])
		}
	}
	return p50us(v)
}

// totalP50 is the median request duration (µs) of one class.
func (d decomposition) totalP50(write bool) float64 {
	var v []int64
	for _, r := range d.roots {
		if r.write == write {
			v = append(v, r.total)
		}
	}
	return p50us(v)
}

// layers lists the layers that appear in any request.
func (d decomposition) layers() []string {
	seen := map[string]bool{}
	for _, r := range d.roots {
		for l := range r.self {
			seen[l] = true
		}
	}
	var out []string
	for l := range seen {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// sumRatio is the decomposition's validity figure for one class: the sum of
// the layers' median self times over the median request time. Self times
// partition each request exactly, so the ratio strays from 1 only as far as
// medians fail to add.
func (d decomposition) sumRatio(write bool) float64 {
	total := d.totalP50(write)
	if total == 0 {
		return 0
	}
	sum := 0.0
	for _, l := range d.layers() {
		sum += d.selfP50(l, write)
	}
	return sum / total
}

// p50 of a named span's durations in µs; class is ":r", ":w" or "" for both.
func (d decomposition) p50(name, class string) float64 {
	if class != "" {
		return p50us(append([]int64(nil), d.dur[name+class]...))
	}
	return p50us(append(append([]int64(nil), d.dur[name+":r"]...), d.dur[name+":w"]...))
}
