package rpc

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net"
	"time"

	"repro/internal/backoff"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/wal"
)

// RetryPolicy governs how a Remote re-issues failed calls. Retries are
// only attempted for transport-level failures (link death, redial
// failure, per-attempt timeout), never for errors the object itself
// returned; combined with the node's at-most-once cache, a retried call
// observes the original execution's result rather than running twice.
type RetryPolicy struct {
	// Max is the number of retries after the first attempt (0 = no retry).
	Max int
	// Backoff is the step before the first retry (default 5ms). Each
	// subsequent retry doubles it; every wait is drawn from [step/2, step]
	// by a hash of the client ID and the call's sequence number.
	Backoff time.Duration
	// MaxBackoff caps the exponential growth (default 500ms).
	MaxBackoff time.Duration
	// AttemptTimeout bounds each individual attempt (0 = unbounded). An
	// attempt that times out while the overall context is still live is
	// retried — the dedup cache makes that safe.
	AttemptTimeout time.Duration
}

// schedule is p's backoff with the zero fields defaulted.
func (p RetryPolicy) schedule(seed uint64) backoff.Schedule {
	s := backoff.Schedule{Base: p.Backoff, Cap: p.MaxBackoff, Seed: seed}
	if s.Base <= 0 {
		s.Base = 5 * time.Millisecond
	}
	if s.Cap <= 0 {
		s.Cap = 500 * time.Millisecond
	}
	return s
}

// DialOptions configures a Remote. The zero value reproduces the classic
// behaviour: 10s dial and list timeouts, no retries, a random client
// identity, reconnect-on-demand for address-based dials.
type DialOptions struct {
	// Timeout bounds each TCP connect of an address-based Remote
	// (default 10s).
	Timeout time.Duration
	// ListTimeout bounds List (default 10s).
	ListTimeout time.Duration
	// Redial establishes the transport: the first connect and every one
	// after a link failure. NewRemote and DialWith fill it with a TCP dial
	// of the address when nil; DialConnWith leaves it nil, which disables
	// reconnection.
	Redial func() (net.Conn, error)
	// Retry is the default policy applied by Call/CallCtx; CallWith can
	// override it per call.
	Retry RetryPolicy
	// ClientID is the stable identity used for at-most-once dedup on the
	// node. Defaults to a random ID; set it explicitly for deterministic
	// tests or for clients that survive process restarts.
	ClientID string
	// Metrics, when non-nil, accumulates resilience counters.
	Metrics *Metrics
	// Trace, when non-nil, records link and retry events.
	Trace *trace.Recorder
}

// withDefaults fills the zero fields.
func (o DialOptions) withDefaults() DialOptions {
	if o.Timeout <= 0 {
		o.Timeout = 10 * time.Second
	}
	if o.ListTimeout <= 0 {
		o.ListTimeout = 10 * time.Second
	}
	if o.ClientID == "" {
		o.ClientID = randomClientID()
	}
	return o
}

// CallOptions tunes one call.
type CallOptions struct {
	// Deadline bounds the whole call including retries (0 = none).
	Deadline time.Duration
	// Retry overrides the Remote's default policy when non-nil.
	Retry *RetryPolicy
}

// Metrics aggregates the resilience counters of clients (retries,
// reconnects) and nodes (dedup hits, drain rejections). Share one
// instance across Remotes/Nodes to aggregate, or use one each.
type Metrics struct {
	Retries    metrics.Counter // call attempts beyond the first
	Reconnects metrics.Counter // successful redials (not first connects)
	DedupHits  metrics.Counter // retried requests answered from the cache
	DrainDrops metrics.Counter // requests rejected while draining

	// Overloads counts calls that failed with core.ErrOverload: on a node,
	// requests its hosted objects shed; on a client, shed responses that
	// triggered a fresh-sequence retry.
	Overloads metrics.Counter
	// Poisons counts responses that failed with core.ErrObjectPoisoned
	// (terminal; never retried).
	Poisons metrics.Counter
	// ReplayTimeouts counts duplicate requests that gave up waiting on an
	// in-flight primary execution (ErrReplayTimeout responses).
	ReplayTimeouts metrics.Counter

	// Transport counters, accumulated per link and summed across the links
	// sharing this Metrics. FramesSent/Flushes is the frames-per-flush
	// coalescing ratio (1.0 = lock-step, higher = batched) and
	// BytesSent/Flushes the mean batch size — the numbers the pipelined
	// benches use to prove coalescing actually happens.
	BytesSent  metrics.Counter // payload+framing bytes flushed to the wire
	BytesRecv  metrics.Counter // framed bytes consumed off the wire
	FramesSent metrics.Counter // frames written (requests, responses, chan sends)
	FramesRecv metrics.Counter // frames decoded
	Flushes    metrics.Counter // explicit write-buffer flushes (batch boundaries)

	// Supervision, when non-nil, is the object-layer supervision counter
	// set shared with the hosted objects (via core.ObjectOptions.Metrics),
	// so restart/shed/poison/stall counts surface alongside the wire
	// counters. The rpc layer itself never writes to it.
	Supervision *metrics.Supervision

	// Replication counters, written by internal/replica when its Config
	// carries this Metrics instance (replica.Config.Metrics). They make
	// the PR 9 fast paths observable: if ReplRounds ≈ ReplProposals the
	// combiner never combined, if ReplWindow only ever lands in the ≤1
	// bucket the pipeline ran stop-and-wait, and ReplReads vs ReplRounds
	// is the fraction of traffic that skipped the log entirely.
	ReplProposals   metrics.Counter  // proposals entering the leader's combining queue
	ReplCombined    metrics.Counter  // proposals that rode another proposer's round
	ReplRounds      metrics.Counter  // combined append rounds (one log sync each)
	ReplReads       metrics.Counter  // ReadIndex reads served from leader-local state
	ReplReadRounds  metrics.Counter  // quorum confirmation rounds issued for reads
	ReplReadRetries metrics.Counter  // reads bounced retryable mid-protocol
	ReplBatch       metrics.SizeHist // entries per AppendEntries frame
	ReplWindow      metrics.SizeHist // per-peer in-flight frames at send time
}

// NodeOptions configures a Node. The zero value reproduces the classic
// behaviour: immediate teardown on Close and a 1024-entry dedup cache.
type NodeOptions struct {
	// DedupCap bounds the at-most-once cache (completed calls retained
	// for replay); default 1024. Retries arriving after eviction
	// re-execute, so size it above clients × in-flight window.
	DedupCap int
	// DrainGrace is how long Close waits for in-flight invocations to
	// finish before cancelling them (default 0: cancel immediately).
	DrainGrace time.Duration
	// Metrics, when non-nil, accumulates dedup/drain counters.
	Metrics *Metrics
	// Trace, when non-nil, records link lifecycle and replay events.
	Trace *trace.Recorder
	// Durable mounts a write-ahead durability store on the node. The dedup
	// cache joins it as the participant wal.AckLedger: acks for journaled
	// entries are synced to it before their responses leave, and the cache
	// is recovered from it. The node does not own the store: open it (and
	// recover the objects) before creating the node, close it after
	// Node.Close. Nil — the default — keeps the serve path free of
	// durability work.
	Durable *wal.Store
	// ReplayWait bounds how long a duplicate request waits for the
	// in-flight primary execution of its (client, seq) before answering
	// ErrReplayTimeout (the wire carries no per-call deadline, so the node
	// must bound this wait itself or a stalled primary pins the duplicate's
	// serve goroutine forever). 0 selects the 30s default; negative
	// disables the bound.
	ReplayWait time.Duration
	// FlushGrace bounds how long a graceful link close waits for queued
	// response frames to reach the wire before tearing the connection
	// down — the bound that keeps a peer who stopped reading from turning
	// Close into a hang. 0 selects the historical 1s; negative skips the
	// flush wait entirely (teardown speed over response delivery — a
	// deliberately failing-over replica uses this so a wedged follower
	// cannot slow its exit).
	FlushGrace time.Duration
}

func randomClientID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("client-%d", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}
