package replica

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/rpc"
	"repro/internal/wire"
)

// run is the member's timer loop: as follower/candidate it watches for
// election timeout, as leader it drives heartbeats. One ticker at the
// heartbeat interval gives both enough resolution.
func (r *Replica) run() {
	defer r.wg.Done()
	t := time.NewTicker(r.cfg.heartbeat())
	defer t.Stop()
	for {
		select {
		case <-r.done:
			return
		case <-t.C:
		}
		r.mu.Lock()
		switch r.role {
		case Leader:
			r.mu.Unlock()
			r.kickPeers()
		case Follower, Candidate:
			if time.Now().After(r.electionDeadline) {
				r.startElectionLocked() // unlocks
			} else {
				r.mu.Unlock()
			}
		}
	}
}

// resetElectionDeadline draws the next timeout from the member's seeded
// stream: [T, 2T) so two members rarely fire together, reproducibly so
// the failover schedule of a seeded test replays exactly.
func (r *Replica) resetElectionDeadline() {
	base := r.cfg.ElectionTimeout
	d := base + time.Duration(r.rng.Intn(int(base)))
	r.electionDeadline = time.Now().Add(d)
}

// startElectionLocked begins a candidacy: bump the term, vote for self,
// persist both before soliciting, then collect votes concurrently.
// Called with r.mu held; returns with it released.
func (r *Replica) startElectionLocked() {
	r.role = Candidate
	r.term++
	r.votedFor = r.cfg.ID
	r.leaderID = ""
	r.failReadsLocked(wire.ErrNotLeader)
	term := r.term
	lastIdx := r.lastIndex()
	lastTerm, _ := r.termAt(lastIdx)
	r.resetElectionDeadline()
	lsn, err := r.persistStateLocked()
	r.mu.Unlock()
	if err := r.waitSynced(lsn, err); err != nil {
		r.logf("election t%d: %v", term, err)
		return
	}
	r.logf("election t%d: soliciting votes (last %d/t%d)", term, lastIdx, lastTerm)

	votes := make(chan bool, len(r.peers))
	for _, p := range r.peers {
		go func(p *peer) {
			granted, peerTerm, err := p.requestVote(term, r.cfg.ID, lastIdx, lastTerm)
			if err != nil {
				votes <- false
				return
			}
			if peerTerm > term {
				r.observeTerm(peerTerm)
				votes <- false
				return
			}
			votes <- granted
		}(p)
	}
	need := (len(r.peers)+1)/2 + 1 // quorum of the full group
	got := 1                       // self
	if got >= need {
		// Single-member group: the self vote is already a quorum.
		r.becomeLeader(term)
		return
	}
	go func() {
		for range r.peers {
			if <-votes {
				got++
			}
			if got >= need {
				r.becomeLeader(term)
				return
			}
		}
	}()
}

// becomeLeader transitions if the member is still the candidate of term.
// The fresh leader appends a no-op barrier entry: Raft never commits a
// prior-term entry by counting replicas, so the barrier is what lets the
// new leader commit everything it inherited — and what guarantees parked
// waiters resolve after a failover instead of hanging on an uncommittable
// tail. The barrier index also gates the ReadIndex fast path: reads
// bounce until it commits.
func (r *Replica) becomeLeader(term uint64) {
	r.mu.Lock()
	if r.closed || r.role != Candidate || r.term != term {
		r.mu.Unlock()
		return
	}
	r.role = Leader
	r.leaderID = r.cfg.ID
	next := r.lastIndex() + 1
	for _, p := range r.peers {
		p.mu.Lock()
		p.nextIndex = next
		p.matchIndex = 0
		p.epoch++ // acks from frames of an older leadership are stale
		p.sentConfirm = p.confirmed
		p.lastSent = time.Time{} // heartbeat immediately
		p.mu.Unlock()
	}
	barrier := entry{Term: term}
	idx := r.appendLocalLocked(barrier)
	r.barrierIdx = idx
	lsn, err := r.persistAppendLocked(idx, barrier)
	r.mu.Unlock()
	if err := r.waitSynced(lsn, err); err != nil {
		r.logf("barrier: %v", err)
	}
	r.logf("leader of t%d (barrier at %d)", term, idx)
	r.kickPeers()
	r.maybeAdvanceCommit()
}

// observeTerm steps down if t is newer than ours — the single rule that
// keeps stale leaders from splitting the group's brain.
func (r *Replica) observeTerm(t uint64) {
	r.mu.Lock()
	var lsn uint64
	var err error
	if t > r.term {
		r.term = t
		r.votedFor = ""
		r.role = Follower
		r.leaderID = ""
		r.failReadsLocked(wire.ErrNotLeader)
		r.resetElectionDeadline()
		lsn, err = r.persistStateLocked()
	}
	r.mu.Unlock()
	if err := r.waitSynced(lsn, err); err != nil {
		r.logf("term t%d: %v", t, err) // this answers nobody
	}
}

// kickPeers nudges every replication pump: new entries to ship, a commit
// index to advertise, a read round to confirm, or just a heartbeat due.
func (r *Replica) kickPeers() {
	for _, p := range r.peers {
		select {
		case p.kick <- struct{}{}:
		default:
		}
	}
}

// maybeAdvanceCommit recomputes the quorum match point. Only entries of
// the CURRENT term commit by counting (the barrier carries the rest).
// Followers learn the new frontier from the commit index piggybacked on
// the next entry frame or heartbeat — an advance wakes only the local
// apply loop.
func (r *Replica) maybeAdvanceCommit() {
	r.mu.Lock()
	if r.role != Leader {
		r.mu.Unlock()
		return
	}
	matches := make([]uint64, 0, len(r.peers)+1)
	matches = append(matches, r.lastIndex())
	for _, p := range r.peers {
		p.mu.Lock()
		matches = append(matches, p.matchIndex)
		p.mu.Unlock()
	}
	// quorum-th highest match index is replicated on a majority.
	for i := 1; i < len(matches); i++ {
		for j := i; j > 0 && matches[j] > matches[j-1]; j-- {
			matches[j], matches[j-1] = matches[j-1], matches[j]
		}
	}
	n := matches[(len(matches)-1)/2]
	if n > r.commitIndex {
		if t, ok := r.termAt(n); ok && t == r.term {
			r.commitIndex = n
			r.applyCond.Signal()
		}
	}
	r.mu.Unlock()
}

// --- peer: one replication target ---

// peer is the leader-side view of one other member: its Remote (which
// dials on its first call and redials after a link failure, so a peer
// that is down at startup or restarting becomes reachable the moment its
// endpoint listens again), replication cursors, and the pipeline window
// of AppendEntries frames currently in flight to it.
type peer struct {
	r    *Replica
	id   string
	rem  *rpc.Remote
	kick chan struct{}

	mu         sync.Mutex
	nextIndex  uint64
	matchIndex uint64

	// Pipeline state. inflight counts outstanding frames (bounded by
	// pipelineWindow); epoch is bumped whenever a frame fails or
	// conflicts, so acks for frames sent under an older view cannot
	// double-apply a rewind. nextIndex advances optimistically at send
	// time and is rewound by the epoch-guarded nack path — matchIndex
	// only ever moves forward, on hard evidence, so commit counting stays
	// safe under reordered acks.
	inflight    int
	epoch       uint64
	confirmed   uint64    // highest read-confirmation round this peer acked
	sentConfirm uint64    // highest confirmation round shipped
	lastSent    time.Time // heartbeat pacing
}

func newPeer(r *Replica, id, addr string) *peer {
	rem := rpc.NewRemote(addr, rpc.DialOptions{
		Redial: func() (net.Conn, error) { return r.cfg.Dial(addr) },
	})
	return &peer{r: r, id: id, rem: rem, kick: make(chan struct{}, 1), nextIndex: 1}
}

// call issues one consensus RPC, bounded by the election timeout — a
// wedged peer must not pin a pipeline slot past the point where the
// group would re-elect anyway.
func (p *peer) call(entry string, params ...any) ([]any, error) {
	ctx, cancel := context.WithTimeout(context.Background(), p.r.cfg.ElectionTimeout)
	defer cancel()
	return p.rem.CallWith(ctx, rpc.CallOptions{}, ControlName(p.r.cfg.Group), entry, params...)
}

func (p *peer) requestVote(term uint64, candidate string, lastIdx, lastTerm uint64) (granted bool, peerTerm uint64, err error) {
	res, err := p.call("RequestVote", term, candidate, lastIdx, lastTerm)
	if err != nil {
		return false, 0, err
	}
	t, err := as[uint64](res, 0)
	g, err2 := as[bool](res, 1)
	if err = firstErr(err, err2, arity(res, 2)); err != nil {
		return false, 0, fmt.Errorf("replica: RequestVote reply: %w", err)
	}
	return g, t, nil
}

const (
	// maxBatch bounds entries per AppendEntries frame: catch-up streams in
	// chunks instead of one giant frame.
	maxBatch = 64
	// combineWindow bounds how many concurrent proposals one combining
	// round carries into a single append+sync+replicate cycle. FIFO
	// submission order is preserved.
	combineWindow = maxBatch
	// pipelineWindow bounds AppendEntries frames in flight per peer:
	// follower RTT, leader fsync and frame encode overlap instead of
	// serializing (1 would be stop-and-wait).
	pipelineWindow = 4
)

// loop drives this peer's pipeline; kicked on appends, commit changes,
// read rounds and the heartbeat tick.
func (p *peer) loop() {
	r := p.r
	defer r.wg.Done()
	for {
		select {
		case <-r.done:
			return
		case <-p.kick:
		}
		p.pump()
	}
}

// pump tops up the pipeline: while we lead and the window has room, ship
// the next AppendEntries frame (an empty one at prev 0 when only a read
// round needs confirming). Each frame's ack is handled on its own
// goroutine, so follower RTT, leader work and frame encode overlap — the
// stop-and-wait replicateOnce of PR 8, unrolled N deep. Safe to call from
// multiple goroutines: the r.mu+p.mu hold reserves each frame's log range
// before anything is sent.
func (p *peer) pump() {
	r := p.r
	for {
		r.mu.Lock()
		if r.closed || r.role != Leader {
			r.mu.Unlock()
			return
		}
		term := r.term
		commit := r.commitIndex
		confirm := r.confirmSeq
		pendingReads := len(r.reads) > 0

		p.mu.Lock()
		if p.inflight >= pipelineWindow {
			p.mu.Unlock()
			r.mu.Unlock()
			return
		}
		next := p.nextIndex

		if next <= r.snapIndex && r.snapBlob != nil {
			// The entries this peer needs are compacted away: ship the
			// snapshot — alone, the pipe drained, so no log frame can race
			// the install.
			if p.inflight > 0 {
				p.mu.Unlock()
				r.mu.Unlock()
				return
			}
			blob := r.snapBlob
			snapIdx, snapTerm := r.snapIndex, r.snapTerm
			epoch := p.epoch
			p.inflight++
			p.lastSent = time.Now()
			p.mu.Unlock()
			r.mu.Unlock()
			go p.sendSnapshot(term, snapIdx, snapTerm, blob, epoch)
			return
		}

		prev := next - 1
		prevTerm, ok := r.termAt(prev)
		if !ok {
			// prev is below our snapshot floor and we have no blob to ship
			// (compaction disabled): restart the peer from the floor.
			p.nextIndex = r.snapIndex + 1
			p.mu.Unlock()
			r.mu.Unlock()
			continue
		}
		last := r.lastIndex()
		n := int(last - prev)
		if n > maxBatch {
			n = maxBatch
		}
		// Commit advances are NOT a send trigger on their own: the new
		// frontier piggybacks on the next entry frame or heartbeat, so a
		// committed op costs the group one frame per peer, not two.
		// Followers trail the leader's commit by at most one heartbeat,
		// which only delays their local applies, never the client reply.
		heartbeatDue := time.Since(p.lastSent) >= r.cfg.heartbeat()
		needConfirm := pendingReads && confirm > p.sentConfirm
		if n == 0 && !heartbeatDue {
			if !needConfirm {
				p.mu.Unlock()
				r.mu.Unlock()
				return
			}
			// Only a read round to confirm: an empty frame at prev 0, which
			// every follower's log holds. The follower answers it at its
			// snapshot floor without waiting on its own fsyncs, and its ack
			// moves no cursor here: nextIndex stays put and the match is 0.
			prev, prevTerm = 0, 0
		}

		f := getAppendFrame()
		for i := 0; i < n; i++ {
			e, _ := r.entryAt(prev + 1 + uint64(i))
			f.add(e)
		}
		epoch := p.epoch
		p.nextIndex += uint64(n) // optimistic; the nack path rewinds
		p.inflight++
		depth := p.inflight
		if confirm > p.sentConfirm {
			p.sentConfirm = confirm
		}
		p.lastSent = time.Now()
		p.mu.Unlock()
		r.mu.Unlock()
		if m := r.cfg.Metrics; m != nil {
			if n > 0 || heartbeatDue {
				m.ReplBatch.Observe(n) // log frames only, not read confirmations
			}
			m.ReplWindow.Observe(depth)
		}
		go p.sendAppend(term, prev, prevTerm, commit, confirm, f, epoch)
	}
}

// sendAppend ships one AppendEntries frame and handles its ack. A success
// advances matchIndex (monotonic — valid whatever order acks land in) and
// counts toward any read round at or below confirm; a conflict or
// transport failure rewinds nextIndex under the epoch guard, so only the
// FIRST failure of a burst rewinds and stale acks are inert. A failed read
// confirmation (prev 0) rewinds to matchIndex+1, the hard evidence.
func (p *peer) sendAppend(term, prev, prevTerm, commit, confirm uint64, f *appendFrame, epoch uint64) {
	r := p.r
	res, err := p.call("AppendEntries", term, r.cfg.ID, prev, prevTerm, commit, f.vals)
	n := uint64(len(f.vals))
	putAppendFrame(f)
	if err != nil {
		p.nack(epoch, prev+1)
		return
	}
	peerTerm, success, conflict, derr := decodeAppendReply(res)
	if derr != nil {
		p.nack(epoch, prev+1)
		return
	}
	if peerTerm > term {
		p.finish()
		r.observeTerm(peerTerm)
		return
	}
	if !success {
		// Log mismatch: back off to the follower's hint. The hint applies
		// to THIS frame's prev — with a clamped floor at matchIndex, which
		// is hard evidence whatever this reply says.
		p.mu.Lock()
		p.inflight--
		if p.epoch == epoch {
			p.epoch++
			ni := conflict
			if ni == 0 || ni > prev {
				ni = prev
			}
			if ni <= p.matchIndex {
				ni = p.matchIndex + 1
			}
			if ni < 1 {
				ni = 1
			}
			p.nextIndex = ni
			p.sentConfirm = p.confirmed
		}
		p.mu.Unlock()
		p.pump()
		return
	}
	p.mu.Lock()
	p.inflight--
	match := prev + n
	if match > p.matchIndex {
		p.matchIndex = match
	}
	if match+1 > p.nextIndex {
		p.nextIndex = match + 1
	}
	if confirm > p.confirmed {
		p.confirmed = confirm
	}
	p.mu.Unlock()
	r.maybeAdvanceCommit()
	r.advanceReads()
	p.pump()
}

// sendSnapshot ships the compaction snapshot and resumes the log from its
// floor.
func (p *peer) sendSnapshot(term, snapIdx, snapTerm uint64, blob []byte, epoch uint64) {
	r := p.r
	res, err := p.call("InstallSnapshot", term, r.cfg.ID, snapIdx, snapTerm, blob)
	var peerTerm uint64
	if err == nil {
		peerTerm, err = as[uint64](res, 0)
		err = firstErr(err, arity(res, 1))
	}
	if err != nil || peerTerm > term {
		// A reply that does not decode proves no install: the cursors stay.
		p.finish()
		if err == nil {
			r.observeTerm(peerTerm)
		}
		return
	}
	p.mu.Lock()
	p.inflight--
	if p.matchIndex < snapIdx {
		p.matchIndex = snapIdx
	}
	if p.epoch == epoch && p.nextIndex < snapIdx+1 {
		p.nextIndex = snapIdx + 1
	}
	p.mu.Unlock()
	r.maybeAdvanceCommit()
	p.pump()
}

// nack handles a failed or undecodable AppendEntries exchange: free the
// window slot and, if no later failure already did, rewind nextIndex to
// resend from this frame's range.
func (p *peer) nack(epoch, rewindTo uint64) {
	p.mu.Lock()
	p.inflight--
	if p.epoch == epoch {
		p.epoch++
		if rewindTo < p.nextIndex {
			p.nextIndex = rewindTo
		}
		if p.nextIndex <= p.matchIndex {
			p.nextIndex = p.matchIndex + 1
		}
		p.sentConfirm = p.confirmed
	}
	p.mu.Unlock()
}

// finish frees a window slot with no cursor changes.
func (p *peer) finish() {
	p.mu.Lock()
	p.inflight--
	p.mu.Unlock()
}

func decodeAppendReply(res []any) (term uint64, success bool, conflict uint64, err error) {
	term, err = as[uint64](res, 0)
	success, err2 := as[bool](res, 1)
	conflict, err3 := as[uint64](res, 2)
	if err = firstErr(err, err2, err3, arity(res, 3)); err != nil {
		return 0, false, 0, fmt.Errorf("replica: AppendEntries reply: %w", err)
	}
	return term, success, conflict, nil
}

// --- pooled AppendEntries encode scratch ---

// appendFrame is the reusable encode scratch for one AppendEntries batch:
// the []any the wire codec carries plus the per-entry 5-slot cells it
// points into. Reuse is safe the moment CallWith returns — the transport
// encodes frames synchronously in the sender's goroutine (link.send)
// before queueing bytes, so nothing references the scratch afterwards.
// This is most of the fix for PR 8's 140 allocs/op: the per-round batch
// and cell allocations become pool hits.
type appendFrame struct {
	vals  []any
	cells [][]any
}

var appendFramePool = sync.Pool{New: func() any { return &appendFrame{} }}

func getAppendFrame() *appendFrame {
	return appendFramePool.Get().(*appendFrame)
}

func (f *appendFrame) add(e entry) {
	params := e.Params
	if params == nil {
		params = []any{}
	}
	i := len(f.vals)
	if i < len(f.cells) {
		f.cells[i] = append(f.cells[i][:0], e.Term, e.Entry, e.Client, e.Seq, params)
	} else {
		f.cells = append(f.cells, []any{e.Term, e.Entry, e.Client, e.Seq, params})
	}
	f.vals = append(f.vals, f.cells[i])
}

func putAppendFrame(f *appendFrame) {
	for i := range f.vals {
		f.vals[i] = nil
	}
	f.vals = f.vals[:0]
	for i := range f.cells {
		c := f.cells[i]
		for j := range c {
			c[j] = nil
		}
		f.cells[i] = c[:0]
	}
	appendFramePool.Put(f)
}
