package telemetry

import (
	"sort"
	"sync"
	"time"
)

// Hub bundles the instrument streams one process exposes: the metrics
// registry, the span log, the live byte counters, and the
// flight-recorder event ring. All accessors are nil-safe — a nil *Hub
// hands out nil instruments whose methods are no-ops — so servers and
// clients instrument unconditionally and pay almost nothing when
// telemetry is off.
type Hub struct {
	epoch    time.Time
	registry *Registry
	spans    *SpanLog
	live     *CounterSet
	events   *EventLog

	mu      sync.Mutex
	process string            // identity in /events and /trace responses
	peers   map[string]string // process name -> telemetry base URL, for /trace stitching
	health  map[string]func() error
}

// NewHub creates a hub with the production cadence: 30-second live
// bins and a 512-span completed ring.
func NewHub() *Hub { return NewHubConfig(DefaultBinSec, 0) }

// NewHubConfig creates a hub with an explicit live-counter bin width in
// seconds (<= 0: DefaultBinSec) and completed-span capacity (<= 0:
// 512). Tests use sub-second bins to exercise the SNMP pipeline
// quickly.
func NewHubConfig(binSec float64, spanCap int) *Hub {
	epoch := time.Now()
	return &Hub{
		epoch:    epoch,
		registry: NewRegistry(),
		spans:    NewSpanLog(epoch, spanCap),
		live:     NewCounterSet(epoch, binSec),
		events:   NewEventLog(epoch, 0),
	}
}

// Epoch returns the hub's time origin: StartSec in spans and bin 0 of
// every live counter are measured from it.
func (h *Hub) Epoch() time.Time {
	if h == nil {
		return time.Time{}
	}
	return h.epoch
}

// Registry returns the metrics registry (nil for a nil hub).
func (h *Hub) Registry() *Registry {
	if h == nil {
		return nil
	}
	return h.registry
}

// Spans returns the span log (nil for a nil hub).
func (h *Hub) Spans() *SpanLog {
	if h == nil {
		return nil
	}
	return h.spans
}

// Live returns the live byte-counter set (nil for a nil hub).
func (h *Hub) Live() *CounterSet {
	if h == nil {
		return nil
	}
	return h.live
}

// Counter resolves a registry counter (nil-safe).
func (h *Hub) Counter(name, help string, labels ...Label) *Counter {
	return h.Registry().Counter(name, help, labels...)
}

// CounterVec resolves a registry counter vec (nil-safe).
func (h *Hub) CounterVec(name, help string, keys ...string) *CounterVec {
	return h.Registry().CounterVec(name, help, keys...)
}

// Gauge resolves a registry gauge (nil-safe).
func (h *Hub) Gauge(name, help string, labels ...Label) *Gauge {
	return h.Registry().Gauge(name, help, labels...)
}

// Histogram resolves a registry histogram (nil-safe).
func (h *Hub) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	return h.Registry().Histogram(name, help, buckets, labels...)
}

// Span starts a span (nil-safe).
func (h *Hub) Span(op, target string, first Phase) *Span {
	return h.Spans().Start(op, target, first)
}

// LiveCounter resolves a live byte counter by name (nil-safe).
func (h *Hub) LiveCounter(name string) *LiveCounter {
	return h.Live().Counter(name)
}

// Events returns the flight-recorder ring (nil for a nil hub).
func (h *Hub) Events() *EventLog {
	if h == nil {
		return nil
	}
	return h.events
}

// Event records one flight-recorder event (nil-safe).
func (h *Hub) Event(trace, kind, detail string) {
	h.Events().Add(trace, kind, detail)
}

// SetProcessName names this hub's process in /events and /trace
// responses (e.g. "gftpd", "oscarsd", "gftpxfer").
func (h *Hub) SetProcessName(name string) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.process = name
	h.mu.Unlock()
}

// ProcessName returns the name set by SetProcessName ("" by default).
func (h *Hub) ProcessName() string {
	if h == nil {
		return ""
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.process
}

// AddTracePeer registers another process's telemetry base URL (e.g.
// "http://127.0.0.1:9911") under its process name. /trace/<id> fans
// out to every registered peer and stitches the returned spans and
// events into one cross-process tree.
func (h *Hub) AddTracePeer(name, baseURL string) {
	if h == nil || baseURL == "" {
		return
	}
	h.mu.Lock()
	if h.peers == nil {
		h.peers = make(map[string]string)
	}
	h.peers[name] = baseURL
	h.mu.Unlock()
}

// TracePeers returns the registered peers as name -> base URL.
func (h *Hub) TracePeers() map[string]string {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[string]string, len(h.peers))
	for k, v := range h.peers {
		out[k] = v
	}
	return out
}

// RegisterHealth adds a named readiness check consulted by /healthz.
// check returns nil when the component is ready; registering the same
// component again replaces its check.
func (h *Hub) RegisterHealth(component string, check func() error) {
	if h == nil || check == nil {
		return
	}
	h.mu.Lock()
	if h.health == nil {
		h.health = make(map[string]func() error)
	}
	h.health[component] = check
	h.mu.Unlock()
}

// HealthSnapshot runs every registered readiness check and returns the
// overall verdict plus per-component status strings ("ok" or the check
// error), component names sorted. With no checks registered the hub is
// trivially healthy.
func (h *Hub) HealthSnapshot() (ok bool, components map[string]string) {
	ok = true
	components = map[string]string{}
	if h == nil {
		return ok, components
	}
	h.mu.Lock()
	checks := make(map[string]func() error, len(h.health))
	for k, v := range h.health {
		checks[k] = v
	}
	h.mu.Unlock()
	names := make([]string, 0, len(checks))
	for name := range checks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := checks[name](); err != nil {
			components[name] = err.Error()
			ok = false
		} else {
			components[name] = "ok"
		}
	}
	return ok, components
}
