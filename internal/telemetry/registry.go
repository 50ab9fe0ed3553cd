// Package telemetry is the live measurement layer for the transfer
// stack: a dependency-free metrics registry (sharded atomic counters,
// gauges, fixed-bucket histograms) with Prometheus text exposition,
// per-transfer spans that record the phase breakdown the paper reasons
// about (control dial, auth, data-channel setup, block streaming,
// teardown), and live 30-second byte counters shaped like the SNMP
// interface counters behind the paper's Eq. 1 link-utilization
// analysis. The sim measures virtual links with internal/snmp; this
// package gives the real engine the same two instrument streams —
// per-transfer records and fixed-cadence byte bins — so the correlation
// pipeline runs unmodified against live traffic.
package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"
)

// nameRE is the Prometheus metric/label naming convention this registry
// enforces at registration time: lower-snake-case, leading letter.
// (Prometheus itself also permits uppercase and colons; the convention
// for application metrics is plain snake_case, and the lint test keeps
// the exposition from drifting.)
var nameRE = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// Label is one name=value metric dimension.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Kind discriminates metric families.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// instrument is one (name, labels) series.
type instrument interface {
	labelKey() string
	expose(w *bufio.Writer, name, labels string)
}

// family groups every labeled instrument under one metric name.
type family struct {
	name string
	help string
	kind Kind

	mu      sync.Mutex
	order   []string
	byLabel map[string]instrument
}

// Registry holds metric families with stable name+label identity:
// registering the same name and label set twice returns the same
// instrument, so call sites may resolve metrics lazily on hot paths.
// All methods are safe for concurrent use and nil-safe (a nil registry
// hands out nil instruments whose operations are no-ops), which lets
// instrumented packages run unconditionally whether or not telemetry
// was enabled.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	vecs     map[string]*CounterVec
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family), vecs: make(map[string]*CounterVec)}
}

// lookup returns the family for name, creating it with the given kind
// and help on first use. Invalid names and kind mismatches panic: both
// are programming errors a test catches immediately. A name is checked
// when its family is created, so a lookup that hits runs no regexp.
func (r *Registry) lookup(name, help string, kind Kind) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		if !nameRE.MatchString(name) {
			panic(fmt.Sprintf("telemetry: metric name %q violates the [a-z][a-z0-9_]* convention", name))
		}
		f = &family{name: name, help: help, kind: kind, byLabel: make(map[string]instrument)}
		r.families[name] = f
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %q registered as %v and %v", name, f.kind, kind))
	}
	return f
}

// instrument resolves the (labels) series inside f, creating it with
// mk on first use; label names are checked then.
func (f *family) instrument(labels []Label, mk func() instrument) instrument {
	key := renderLabels(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if inst, ok := f.byLabel[key]; ok {
		return inst
	}
	for _, l := range labels {
		if !nameRE.MatchString(l.Key) {
			panic(fmt.Sprintf("telemetry: label name %q violates the [a-z][a-z0-9_]* convention", l.Key))
		}
	}
	inst := mk()
	f.byLabel[key] = inst
	f.order = append(f.order, key)
	return inst
}

// renderLabels produces the canonical {k="v",...} form (sorted by key,
// values escaped), which doubles as the series identity. No labels
// renders as "".
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	size := 2
	for _, l := range labels {
		size += len(l.Key) + len(l.Value) + 4
	}
	if len(labels) > 1 {
		sorted := append([]Label(nil), labels...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
		labels = sorted
	}
	var b strings.Builder
	b.Grow(size)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// Counter returns the monotonically increasing series for name+labels.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	f := r.lookup(name, help, KindCounter)
	return f.instrument(labels, func() instrument { return newCounter(labels) }).(*Counter)
}

// CounterVec is the counters of one family keyed by the values of up
// to two labels, each series resolved on its first With and kept. A
// per-call site that resolves its series through Counter renders the
// label set every time; With costs a map read. Nothing is registered
// before the first With, so the exposition lists only the series
// something touched. A nil *CounterVec hands out nil counters.
type CounterVec struct {
	r          *Registry
	name, help string
	keys       []string

	mu     sync.Mutex
	series map[[2]string]*Counter
}

// CounterVec returns the vec of name's counters labelled by keys;
// asking for the same name again returns the same vec.
func (r *Registry) CounterVec(name, help string, keys ...string) *CounterVec {
	if r == nil {
		return nil
	}
	if len(keys) > 2 {
		panic(fmt.Sprintf("telemetry: counter vec %q has %d labels, at most 2", name, len(keys)))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.vecs[name]
	if !ok {
		v = &CounterVec{r: r, name: name, help: help, keys: keys, series: make(map[[2]string]*Counter)}
		r.vecs[name] = v
	}
	return v
}

// With returns the counter whose labels take values, in the order of
// the vec's keys.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	var key [2]string
	copy(key[:], values)
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.series[key]
	if !ok {
		labels := make([]Label, len(v.keys))
		for i, k := range v.keys {
			labels[i] = L(k, key[i])
		}
		c = v.r.Counter(v.name, v.help, labels...)
		v.series[key] = c
	}
	return c
}

// Gauge returns the up-down series for name+labels.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	f := r.lookup(name, help, KindGauge)
	return f.instrument(labels, func() instrument { return newGauge(labels) }).(*Gauge)
}

// Histogram returns the fixed-bucket distribution series for
// name+labels. buckets are upper bounds in increasing order; an
// implicit +Inf bucket is appended. The bucket layout is fixed at
// first registration of the family.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	f := r.lookup(name, help, KindHistogram)
	return f.instrument(labels, func() instrument { return newHistogram(labels, buckets) }).(*Histogram)
}

// Names returns the sorted registered family names.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.families))
	for n := range r.families {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// WriteProm renders the registry in the Prometheus text exposition
// format (version 0.0.4), families sorted by name, series by label key.
func (r *Registry) WriteProm(w io.Writer) error {
	if r == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	for _, name := range r.Names() {
		r.mu.Lock()
		f := r.families[name]
		r.mu.Unlock()
		f.mu.Lock()
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		keys := append([]string(nil), f.order...)
		sort.Strings(keys)
		for _, k := range keys {
			f.byLabel[k].expose(bw, f.name, k)
		}
		f.mu.Unlock()
	}
	return bw.Flush()
}

// counterShards is the stripe count for Counter; a power of two so the
// shard index is a mask.
const counterShards = 16

// paddedCount is one counter stripe, padded out to its own cache line
// so concurrent data-path writers do not false-share.
type paddedCount struct {
	v atomic.Int64
	_ [56]byte
}

// Counter is a monotonically increasing, sharded atomic counter. Adds
// from different goroutines land on different stripes (indexed by a
// cheap stack-address hash, distinct per goroutine), so the per-block
// data path never serializes on one cache line; Value folds the
// stripes. A nil *Counter is a no-op.
type Counter struct {
	labels string
	shards [counterShards]paddedCount
}

func newCounter(labels []Label) *Counter {
	return &Counter{labels: renderLabels(labels)}
}

// shardIndex derives a goroutine-stable stripe index from the address
// of a stack variable: goroutine stacks live on distinct pages, so
// page-granular bits spread concurrent writers across stripes. The
// uintptr conversion is address arithmetic only; the pointer is never
// reconstructed.
func shardIndex() int {
	var marker byte
	return int((uintptr(unsafe.Pointer(&marker)) >> 10) & (counterShards - 1))
}

// Add increments the counter by n (n < 0 is ignored: counters only go
// up).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.shards[shardIndex()].v.Add(n)
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value folds the stripes into the counter's current total.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	var total int64
	for i := range c.shards {
		total += c.shards[i].v.Load()
	}
	return total
}

func (c *Counter) labelKey() string { return c.labels }

func (c *Counter) expose(w *bufio.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %d\n", name, labels, c.Value())
}

// Gauge is an up-down instrument (queue depth, active sessions, open
// listeners). A nil *Gauge is a no-op.
type Gauge struct {
	labels string
	v      atomic.Int64
}

func newGauge(labels []Label) *Gauge { return &Gauge{labels: renderLabels(labels)} }

// Set stores an absolute value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add moves the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

func (g *Gauge) labelKey() string { return g.labels }

func (g *Gauge) expose(w *bufio.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %d\n", name, labels, g.Value())
}

// DurationBuckets covers transfer-stack latencies from sub-millisecond
// control round trips to multi-minute bulk transfers (seconds).
var DurationBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
	1, 2.5, 5, 10, 30, 60, 120, 300,
}

// SizeBuckets covers object sizes from a KiB to the paper's 32 GB
// bulk-transfer regime (bytes).
var SizeBuckets = []float64{
	1 << 10, 16 << 10, 256 << 10, 1 << 20, 16 << 20, 256 << 20,
	1 << 30, 4 << 30, 32 << 30,
}

// Histogram is a fixed-bucket distribution: per-bucket atomic counts
// plus an atomic float sum, cheap enough for per-transfer observation.
// A nil *Histogram is a no-op.
type Histogram struct {
	labels  string
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1; last is +Inf
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-updated
}

func newHistogram(labels []Label, buckets []float64) *Histogram {
	bounds := append([]float64(nil), buckets...)
	if len(bounds) == 0 {
		bounds = DurationBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("telemetry: histogram buckets must be strictly increasing")
		}
	}
	return &Histogram{
		labels: renderLabels(labels),
		bounds: bounds,
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.counts[sort.SearchFloat64s(h.bounds, v)].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

func (h *Histogram) labelKey() string { return h.labels }

func (h *Histogram) expose(w *bufio.Writer, name, labels string) {
	// _bucket series carry the extra le label inside the existing set.
	open := func(le string) string {
		if labels == "" {
			return `{le="` + le + `"}`
		}
		return labels[:len(labels)-1] + `,le="` + le + `"}`
	}
	cum := int64(0)
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, open(formatBound(b)), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, open("+Inf"), cum)
	fmt.Fprintf(w, "%s_sum%s %g\n", name, labels, h.Sum())
	fmt.Fprintf(w, "%s_count%s %d\n", name, labels, h.Count())
}

func formatBound(b float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%f", b), "0"), ".")
}
