// Package metrics provides the counters, latency histograms and table
// rendering used by the experiment harness (cmd/alpsbench) and the
// benchmarks in bench_test.go.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter safe for concurrent use.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Supervision aggregates the object-layer supervision counters: admission
// sheds, manager restarts, object poisonings and watchdog stall detections.
// Share one instance across objects (e.g. all objects hosted by a node) to
// aggregate, or use one each. The zero value is ready to use.
type Supervision struct {
	Sheds    Counter // calls rejected by admission control (ErrOverload)
	Restarts Counter // manager processes restarted by the supervisor
	Poisons  Counter // objects poisoned (manager dead, no recovery)
	Stalls   Counter // stall-watchdog detections (old pending call, live manager)
}

// Histogram accumulates duration samples and reports percentiles. To bound
// memory it keeps a uniform reservoir of at most maxSamples samples plus
// exact count/sum/min/max.
type Histogram struct {
	mu       sync.Mutex
	samples  []time.Duration
	cap      int
	count    uint64
	sum      time.Duration
	min      time.Duration
	max      time.Duration
	rngState uint64
}

// NewHistogram creates a histogram with the given reservoir capacity
// (0 selects a default of 8192).
func NewHistogram(maxSamples int) *Histogram {
	if maxSamples <= 0 {
		maxSamples = 8192
	}
	return &Histogram{cap: maxSamples, rngState: 0x9e3779b97f4a7c15}
}

// Observe records one sample.
func (h *Histogram) Observe(d time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.count++
	h.sum += d
	if h.count == 1 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
	if len(h.samples) < h.cap {
		h.samples = append(h.samples, d)
		return
	}
	// Vitter's algorithm R: replace a random element with probability cap/count.
	if idx := h.rand() % h.count; idx < uint64(h.cap) {
		h.samples[idx] = d
	}
}

// Count reports the number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Mean reports the exact mean of all observations.
func (h *Histogram) Mean() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / time.Duration(h.count)
}

// Min reports the smallest observation.
func (h *Histogram) Min() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.min
}

// Max reports the largest observation.
func (h *Histogram) Max() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// Percentile reports the q-th percentile (0 < q <= 100) estimated from the
// reservoir.
func (h *Histogram) Percentile(q float64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 0
	}
	sorted := make([]time.Duration, len(h.samples))
	copy(sorted, h.samples)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(math.Ceil(q/100*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// xorshift64; deterministic, no global rand dependency.
func (h *Histogram) rand() uint64 {
	x := h.rngState
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	h.rngState = x
	return x
}

// Table renders fixed-width experiment tables in the style of a paper's
// results section.
type Table struct {
	Title   string
	Columns []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; values are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		case time.Duration:
			row[i] = v.Round(time.Microsecond).String()
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// Rows returns the number of data rows.
func (t *Table) Rows() int { return len(t.rows) }

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	total := len(widths)*2 - 2
	for _, w := range widths {
		total += w
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// Markdown renders the table as a GitHub-flavored markdown table.
func (t *Table) Markdown() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "**%s**\n\n", t.Title)
	}
	b.WriteString("|")
	for _, c := range t.Columns {
		fmt.Fprintf(&b, " %s |", c)
	}
	b.WriteString("\n|")
	for range t.Columns {
		b.WriteString("---|")
	}
	b.WriteByte('\n')
	for _, row := range t.rows {
		b.WriteString("|")
		for _, cell := range row {
			fmt.Fprintf(&b, " %s |", cell)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Rate formats ops over elapsed as "N ops/s".
func Rate(ops uint64, elapsed time.Duration) string {
	if elapsed <= 0 {
		return "inf"
	}
	return fmt.Sprintf("%.0f ops/s", float64(ops)/elapsed.Seconds())
}

// Ratio formats a/b with two decimals, guarding against division by zero.
func Ratio(a, b float64) string {
	if b == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.2f", a/b)
}
