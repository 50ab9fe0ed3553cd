package gridftp

import (
	"cmp"
	"strconv"
	"sync/atomic"
	"time"

	"gftpvc/internal/telemetry"
)

// srvMetrics resolves the server's registry instruments once at Serve
// time; the labelled ones are vecs, whose series are resolved on first
// use. With a nil hub every instrument is nil and each call degrades
// to a couple of nil checks, so the data path pays nothing when
// telemetry is off.
type srvMetrics struct {
	hub *telemetry.Hub

	sessionsActive   *telemetry.Gauge
	sessionsTotal    *telemetry.Counter
	sessionsRejected *telemetry.Counter
	shardActive      [nConnShards]*telemetry.Gauge
	listenersOpen    *telemetry.Gauge
	dataConns        *telemetry.Counter
	acceptErrors     *telemetry.Counter
	durations        *telemetry.Histogram
	sizes            *telemetry.Histogram
	usageRecords     *telemetry.Counter
	shapedRate       *telemetry.Gauge
	cachedChans      *telemetry.Gauge
	chanReuses       *telemetry.Counter

	commands, transfers, xferBytes, delivered *telemetry.CounterVec
}

func newSrvMetrics(hub *telemetry.Hub) *srvMetrics {
	m := &srvMetrics{hub: hub}
	if hub == nil {
		return m
	}
	m.sessionsActive = hub.Gauge("gridftp_server_sessions_active",
		"Control-channel sessions currently open.")
	m.sessionsTotal = hub.Counter("gridftp_server_sessions_total",
		"Control-channel sessions accepted.")
	m.sessionsRejected = hub.Counter("gridftp_sessions_rejected_total",
		"Connections shed with a 421 greeting by the MaxSessions cap.")
	for i := range m.shardActive {
		m.shardActive[i] = hub.Gauge("gridftp_sessions_active",
			"Control-channel sessions currently open, by registry shard.",
			telemetry.L("shard", strconv.Itoa(i)))
	}
	m.listenersOpen = hub.Gauge("gridftp_server_passive_listeners_open",
		"Per-transfer passive data listeners currently open.")
	m.dataConns = hub.Counter("gridftp_server_data_connections_total",
		"Data connections established for transfers.")
	m.acceptErrors = hub.Counter("gridftp_server_data_accept_errors_total",
		"Failed data-connection setups (accept timeouts, dial errors).")
	m.durations = hub.Histogram("gridftp_server_transfer_duration_seconds",
		"Wall time of transfers, success and failure alike.", telemetry.DurationBuckets)
	m.sizes = hub.Histogram("gridftp_server_transfer_size_bytes",
		"Bytes moved per transfer (partial count on failure).", telemetry.SizeBuckets)
	m.usageRecords = hub.Counter("gridftp_server_usage_records_total",
		"Usage records emitted, success and failure alike.")
	m.shapedRate = hub.Gauge("gridftp_server_shaped_rate_bps",
		"Summed effective session rates (SITE RATE clamped by MaxRateBps) across open sessions — the capacity already promised to clients, scraped by fleet registries as committed load.")
	m.cachedChans = hub.Gauge("gridftp_server_data_channels_cached",
		"Data connections sessions kept open past a clean 226 for their next transfer, one per stream.")
	m.chanReuses = hub.Counter("gridftp_server_data_channel_reuses_total",
		"Transfers that ran over the session's cached data channels: no listen, accept or dial.")
	m.commands = hub.CounterVec("gridftp_server_commands_total",
		"Control-channel commands dispatched, by verb.", "verb")
	m.transfers = hub.CounterVec("gridftp_server_transfers_total",
		"Transfers by operation and result.", "op", "result")
	m.xferBytes = hub.CounterVec("gridftp_server_transfer_bytes_total",
		"Wire bytes moved on data channels, by operation.", "op")
	m.delivered = hub.CounterVec("gridftp_server_delivered_bytes_total",
		"Payload bytes delivered to the store exactly once, by operation.", "op")
	return m
}

// shardSession moves one session in or out of a registry shard's gauge.
func (m *srvMetrics) shardSession(idx int, delta int64) {
	if m.hub == nil {
		return
	}
	m.shardActive[idx].Add(delta)
}

// sessionRejected counts one connection shed by the MaxSessions cap.
func (m *srvMetrics) sessionRejected() {
	if m.hub == nil {
		return
	}
	m.sessionsRejected.Inc()
}

// command counts one dispatched control-channel command. The verb
// label comes from the session's verb table: unknown client input lands
// on "other" instead of minting one series per typo.
func (m *srvMetrics) command(verb string) {
	if m.hub == nil {
		return
	}
	m.commands.With(cmp.Or(verbs[verb].label, "other")).Inc()
}

// transferDone records one finished transfer attempt: result-split
// counters, byte totals, and the duration/size distributions.
func (m *srvMetrics) transferDone(op string, code int, bytes int64, seconds float64) {
	if m.hub == nil {
		return
	}
	result := "ok"
	if code >= 400 {
		result = "error"
	}
	m.transfers.With(op, result).Inc()
	m.xferBytes.With(op).Add(bytes)
	m.durations.Observe(seconds)
	m.sizes.Observe(float64(bytes))
}

// shapedBytes resolves the counter of wire bytes that crossed a
// pacing-shaped data connection — the enforcement layer's footprint on
// the data plane. Nil hub (or shaping off) costs nothing: the caller
// only asks for the counter when a session bucket exists.
func (m *srvMetrics) shapedBytes(op string) *telemetry.Counter {
	if m.hub == nil {
		return nil
	}
	return m.hub.Counter("gridftp_shaped_bytes_total",
		"Wire bytes moved through a rate-shaped data connection, by operation.",
		telemetry.L("op", op))
}

// deliveredBytes records payload bytes that reached the destination
// sink exactly once. The gap between this and the wire counter is the
// redundant-retry traffic the paper's server-contention analysis
// (Figs 7–8) attributes to wasted DTN work.
func (m *srvMetrics) deliveredBytes(op string, n int64) {
	if m.hub == nil || n <= 0 {
		return
	}
	m.delivered.With(op).Add(n)
}

// cliMetrics is the client-side instrument set, resolved at Dial. Its
// vecs are the hub's, shared by every client dialed with it, so each
// labelled series is resolved once per hub, not once per dial.
type cliMetrics struct {
	hub *telemetry.Hub

	durations *telemetry.Histogram
	reuses    *telemetry.Counter

	dials, transfers, xferBytes, delivered *telemetry.CounterVec
}

func newCliMetrics(hub *telemetry.Hub) *cliMetrics {
	m := &cliMetrics{hub: hub}
	if hub == nil {
		return m
	}
	m.durations = hub.Histogram("gridftp_client_transfer_duration_seconds",
		"Wall time of client-driven transfers.", telemetry.DurationBuckets)
	m.reuses = hub.Counter("gridftp_client_data_channel_reuses_total",
		"Transfers that reused cached data channels, their own or a third-party pair's: no PASV, PORT or new connection.")
	m.dials = hub.CounterVec("gridftp_client_dials_total",
		"Control-channel dials, by result.", "result")
	m.transfers = hub.CounterVec("gridftp_client_transfers_total",
		"Client transfers by operation and result.", "op", "result")
	m.xferBytes = hub.CounterVec("gridftp_client_transfer_bytes_total",
		"Wire bytes moved on client data channels, by operation.", "op")
	m.delivered = hub.CounterVec("gridftp_client_delivered_bytes_total",
		"Payload bytes delivered to the client sink exactly once, by operation.", "op")
	return m
}

// dialDone counts a control-channel dial attempt.
func (m *cliMetrics) dialDone(err error) {
	if m.hub == nil {
		return
	}
	m.dials.With(resultLabel(err)).Inc()
}

// transferDone records one finished client transfer attempt.
func (m *cliMetrics) transferDone(op string, err error, bytes int64, seconds float64) {
	if m.hub == nil {
		return
	}
	m.transfers.With(op, resultLabel(err)).Inc()
	m.xferBytes.With(op).Add(bytes)
	m.durations.Observe(seconds)
}

// shapedBytes resolves the client-side shaped-wire-bytes counter; nil
// when telemetry is off.
func (m *cliMetrics) shapedBytes() *telemetry.Counter {
	if m.hub == nil {
		return nil
	}
	return m.hub.Counter("gridftp_client_shaped_bytes_total",
		"Wire bytes moved through a rate-shaped client data connection.")
}

// deliveredBytes records payload bytes the client's streaming sink
// received exactly once (duplicates from a resumed sender excluded).
func (m *cliMetrics) deliveredBytes(op string, n int64) {
	if m.hub == nil || n <= 0 {
		return
	}
	m.delivered.With(op).Add(n)
}

func resultLabel(err error) string {
	if err != nil {
		return "error"
	}
	return "ok"
}

// transferCtx carries one transfer attempt's instrumentation — its
// span, the wall-clock start, and the wire-byte tally the failure path
// reports as the partial byte count — and its direction's state. The
// span is held by value and begun afresh by every transfer (see
// beginTransfer), so a transfer allocates none.
type transferCtx struct {
	op     string
	name   string
	offset int64 // the region's start: REST or ERET
	start  time.Time
	span   telemetry.Span
	wire   atomic.Int64
	conns  int
	// A RETR's region length (-1 on a STOR) and its senders' source,
	// which holds the pinned store region; a STOR's window (the
	// session's, re-armed by openStor), its sink and its claim (see
	// claimPut). asm is nil on a RETR.
	region int64
	blocks blockSource
	asm    *WindowAssembler
	sink   regionSink
	claim  chan struct{}
	// stripes is the usage record's stripe count: the listeners of an
	// armed SPAS, else one.
	stripes int
	// keep is the transfer's data channels after a clean EOD on each,
	// for settle to cache on a 226 and close otherwise.
	keep []*dataChan

	// size is the object region a completed transfer moved (the usage
	// record's byte count on success; a failure logs the partial wire
	// count instead). delivered is the payload byte count the
	// destination sink received exactly once this attempt, win or lose.
	size      int64
	delivered int64
	// wireRec, when nonzero, is the payload wire byte count (duplicates
	// included) recorded as the usage record's WIRE= field; set only
	// when a resumed sender actually re-sent bytes, so untouched
	// transfers log byte-identically to older servers.
	wireRec int64
}
