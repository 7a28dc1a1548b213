package repl

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/wire"
)

// Leader streams the store's committed WAL records to subscribed
// followers. One goroutine per connection writes MsgReplRecords frames;
// a sibling goroutine drains MsgReplAck frames. The stream is paged
// through store.ReadFrom, so the leader never holds more than one
// frame's worth of records in memory per follower and never sends a
// byte past the durable horizon.
//
// Catch-up and live tailing are the same loop: page from the cursor
// until ReadFrom returns nothing, then wait for an append notification
// (with a poll fallback — the notify kick is best-effort by design) and
// page again.

// LeaderConfig configures a feed.
type LeaderConfig struct {
	Store  *store.Store
	NodeID string
	// Epoch is this leader's term. A subscriber presenting a non-zero
	// epoch that differs is refused (StatusExists) — it is talking to a
	// leader from another life.
	Epoch uint64
	// MaxBatch bounds records per MsgReplRecords frame (default 256).
	MaxBatch int
	// MaxBytes bounds payload bytes per frame (default 1 MiB).
	MaxBytes int
	// Poll is the live-tail fallback interval (default 100ms).
	Poll time.Duration
	// WrapConn, when set, wraps every accepted connection — the fault
	// injection seam (wrap in a FaultConn to tear the write path).
	WrapConn func(net.Conn) net.Conn
	// Registry receives rim_repl_* metrics (default obs.Default()).
	Registry *obs.Registry
}

// Leader is a running feed. Create with NewLeader, start with Serve,
// stop with Close.
type Leader struct {
	cfg    LeaderConfig
	mx     *metrics
	notify chan struct{}
	bcast  broadcaster
	done   chan struct{}
	wg     sync.WaitGroup

	mu     sync.Mutex
	closed bool
	lns    []net.Listener
	conns  map[net.Conn]struct{}
	peers  map[string]*peerState
}

// PeerStats is the leader's view of one follower: replication position,
// lag in records, and a clock model estimated from ack round trips.
type PeerStats struct {
	NodeID string       `json:"node"`
	Acked  store.Cursor `json:"-"`
	// AckedCursor is Acked rendered for JSON consumers (/repl/status).
	AckedCursor string `json:"acked"`
	// LagRecords counts records streamed on the current connection that
	// the follower has not yet acknowledged.
	LagRecords uint64 `json:"lag_records"`
	// RTTNS is the last measured ack round trip (frame write to ack
	// arrival on the leader).
	RTTNS int64 `json:"rtt_ns"`
	// OffsetNS estimates the follower's wall clock minus the leader's,
	// from offset ≈ ack.WallNS − (send + RTT/2) of the lowest-RTT ack
	// among the connection's last 64. Zero until the follower sends
	// wall-clock-stamped acks.
	OffsetNS int64 `json:"offset_ns"`
	// LastAckNS is the leader wall clock at the most recent ack.
	LastAckNS int64 `json:"last_ack_ns"`
}

// peerState is the per-follower accounting behind PeerStats. A fresh
// one is installed on every subscribe, so the streamed/acked counters
// are connection-scoped (a reconnect replays the unacked prefix, which
// re-counts as lag until the first ack lands — transient and honest).
type peerState struct {
	mu        sync.Mutex
	acked     store.Cursor
	streamed  uint64 // records written on this connection
	ackedRecs uint64 // records covered by the latest matched ack
	sent      map[store.Cursor]sentFrame
	rttNS     int64
	offsetNS  int64
	lastAckNS int64
	clock     offsetFilter
}

// offsetWindow is how many recent acks the clock-offset filter keeps.
const offsetWindow = 64

// offsetFilter estimates a follower's clock offset NTP-style: it keeps
// the offset sample of the lowest-RTT ack among the last offsetWindow.
// A sample assumes the ack spent half its round trip in flight, so it
// errs by at most RTT/2; the fastest recent round trip bounds the
// estimate's error by minRTT/2, where the latest sample's RTT — inflated
// by any scheduling delay — bounds nothing useful.
type offsetFilter struct {
	rtt, off [offsetWindow]int64
	n        int // samples seen
}

// add records one ack's round trip and offset sample and returns the
// current estimate.
func (f *offsetFilter) add(rtt, off int64) int64 {
	i := f.n % offsetWindow
	f.rtt[i], f.off[i] = rtt, off
	f.n++
	best := i
	for j := range min(f.n, offsetWindow) {
		if f.rtt[j] < f.rtt[best] {
			best = j
		}
	}
	return f.off[best]
}

// sentFrame remembers when a MsgReplRecords frame left the leader. The
// key is the frame's next-cursor — the one value the follower echoes
// back in its ack — because every records frame on a connection shares
// the subscribe frame's id and so ids cannot match acks to frames.
type sentFrame struct {
	atNS  int64
	total uint64 // cumulative records streamed through this frame
}

// NewLeader builds a feed over cfg.Store and hooks its append
// notifications.
func NewLeader(cfg LeaderConfig) *Leader {
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 256
	}
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = 1 << 20
	}
	if cfg.Poll <= 0 {
		cfg.Poll = 100 * time.Millisecond
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.Default()
	}
	l := &Leader{
		cfg:    cfg,
		mx:     registerMetrics(cfg.Registry),
		notify: make(chan struct{}, 1),
		done:   make(chan struct{}),
		conns:  make(map[net.Conn]struct{}),
		peers:  make(map[string]*peerState),
	}
	l.bcast.init()
	cfg.Store.SetAppendNotify(l.notify)
	l.wg.Add(1)
	go l.fanout()
	return l
}

// fanout turns the store's single notify channel into a wake for every
// connection's tail loop.
func (l *Leader) fanout() {
	defer l.wg.Done()
	for {
		select {
		case <-l.notify:
			l.bcast.wake()
		case <-l.done:
			return
		}
	}
}

// Serve accepts follower connections on ln until Close. Blocking; run
// it in a goroutine.
func (l *Leader) Serve(ln net.Listener) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		ln.Close()
		return errors.New("repl: leader closed")
	}
	l.lns = append(l.lns, ln)
	l.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			select {
			case <-l.done:
				return nil
			default:
				return err
			}
		}
		if l.cfg.WrapConn != nil {
			c = l.cfg.WrapConn(c)
		}
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			c.Close()
			return nil
		}
		l.conns[c] = struct{}{}
		l.wg.Add(1)
		l.mu.Unlock()
		go l.handle(c)
	}
}

// Close stops accepting, tears down every feed connection, and detaches
// from the store.
func (l *Leader) Close() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.closed = true
	lns := l.lns
	conns := make([]net.Conn, 0, len(l.conns))
	for c := range l.conns {
		conns = append(conns, c)
	}
	l.mu.Unlock()
	close(l.done)
	for _, ln := range lns {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	l.cfg.Store.SetAppendNotify(nil)
	l.wg.Wait()
}

// Acked reports the last cursor a named follower acknowledged (zero if
// none) — the leader's view of replication lag.
func (l *Leader) Acked(node string) store.Cursor {
	l.mu.Lock()
	defer l.mu.Unlock()
	if ps := l.peers[node]; ps != nil {
		ps.mu.Lock()
		defer ps.mu.Unlock()
		return ps.acked
	}
	return store.Cursor{}
}

// Peers snapshots the leader's per-follower replication view, sorted is
// not guaranteed — callers sort if they need stable output.
func (l *Leader) Peers() []PeerStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]PeerStats, 0, len(l.peers))
	for node, ps := range l.peers {
		ps.mu.Lock()
		out = append(out, PeerStats{
			NodeID:      node,
			Acked:       ps.acked,
			AckedCursor: ps.acked.String(),
			LagRecords:  ps.streamed - ps.ackedRecs,
			RTTNS:       ps.rttNS,
			OffsetNS:    ps.offsetNS,
			LastAckNS:   ps.lastAckNS,
		})
		ps.mu.Unlock()
	}
	return out
}

// refreshLag re-derives the follower-lag gauge from every peer. Called
// on both the send and ack paths so a scrape between acks still sees
// the streamed-but-unacked backlog.
func (l *Leader) refreshLag() {
	l.mu.Lock()
	var lag uint64
	for _, ps := range l.peers {
		ps.mu.Lock()
		lag += ps.streamed - ps.ackedRecs
		ps.mu.Unlock()
	}
	l.mu.Unlock()
	l.mx.lagRecords.Set(float64(lag))
}

func (l *Leader) dropConn(c net.Conn) {
	c.Close()
	l.mu.Lock()
	delete(l.conns, c)
	l.mu.Unlock()
}

// handle speaks one feed connection: handshake, subscribe, stream.
func (l *Leader) handle(c net.Conn) {
	defer l.wg.Done()
	defer l.dropConn(c)
	r := wire.NewReader(c, 0)

	h, p, err := r.Next()
	if err != nil || h.Type != wire.MsgHello || wire.CheckHello(p) != nil {
		l.sendErr(c, h.ID, wire.StatusBad, "repl: expected hello")
		return
	}
	if _, err := c.Write(wire.AppendFrame(nil, wire.MsgHelloOK, 0, h.ID, wire.AppendHello(nil), false)); err != nil {
		return
	}

	h, p, err = r.Next()
	if err != nil || h.Type != wire.MsgReplSubscribe {
		l.sendErr(c, h.ID, wire.StatusBad, "repl: expected subscribe")
		return
	}
	sub, err := wire.DecodeReplSubscribe(p)
	if err != nil {
		l.sendErr(c, h.ID, wire.StatusBad, "repl: bad subscribe: "+err.Error())
		return
	}
	if sub.Epoch != 0 && sub.Epoch != l.cfg.Epoch {
		l.sendErr(c, h.ID, wire.StatusExists,
			fmt.Sprintf("repl: stale epoch %d (leader %s is at %d)", sub.Epoch, l.cfg.NodeID, l.cfg.Epoch))
		return
	}
	l.mx.subs.Inc()

	// A fresh peerState per subscribe: the send-time map and lag
	// counters are connection-scoped, while the installed entry itself
	// outlives the connection so /repl/status keeps the last known
	// position of a dead follower.
	ps := &peerState{sent: make(map[store.Cursor]sentFrame)}
	l.mu.Lock()
	if old := l.peers[sub.NodeID]; old != nil {
		old.mu.Lock()
		ps.acked = old.acked
		old.mu.Unlock()
	}
	l.peers[sub.NodeID] = ps
	l.mu.Unlock()

	// Ack drain: after subscribe the follower only ever sends acks, so
	// this goroutine owns the read half. Any read error (or non-ack
	// frame) kills the connection, which unblocks the stream loop.
	dead := make(chan struct{})
	go func() {
		defer close(dead)
		for {
			ah, ap, err := r.Next()
			if err != nil || ah.Type != wire.MsgReplAck {
				return
			}
			ack, err := wire.DecodeReplAck(ap)
			if err != nil {
				return
			}
			l.mx.acks.Inc()
			now := time.Now().UnixNano()
			ps.mu.Lock()
			ps.acked = ack.Cursor
			ps.lastAckNS = now
			if fr, ok := ps.sent[ack.Cursor]; ok {
				rtt := now - fr.atNS
				ps.rttNS = rtt
				if ack.WallNS != 0 {
					// The follower stamped its wall clock when it acked;
					// assume the ack spent half the round trip in flight.
					ps.offsetNS = ps.clock.add(rtt, ack.WallNS-(fr.atNS+rtt/2))
				}
				ps.ackedRecs = fr.total
				// This ack covers every earlier frame too — drop them so
				// the map stays bounded by the in-flight window.
				for cur, f := range ps.sent {
					if f.total <= fr.total {
						delete(ps.sent, cur)
					}
				}
			}
			ps.mu.Unlock()
			l.refreshLag()
		}
	}()

	l.stream(c, h.ID, sub, ps, dead)
	c.Close() // unblocks the ack drain
	<-dead
}

// errBatchFull stops a ReadFrom page at the frame byte budget; the
// rejected record stays unconsumed and leads the next page.
var errBatchFull = errors.New("repl: batch full")

// stream pages records from the subscribe cursor to the durable horizon
// and then tails live appends. The first frame is sent even when empty:
// it is the subscribe ack, carrying the echoed cursor the follower
// validates against its own.
func (l *Leader) stream(c net.Conn, id uint64, sub wire.ReplSubscribe, ps *peerState, dead chan struct{}) {
	var (
		cur   = sub.Cursor
		first = true
		recs  []store.Record
		buf   []byte
	)
	ticker := time.NewTicker(l.cfg.Poll)
	defer ticker.Stop()
	for {
		recs = recs[:0]
		bytes := 0
		next, n, err := l.cfg.Store.ReadFrom(cur, l.cfg.MaxBatch, func(rec store.Record) error {
			if bytes >= l.cfg.MaxBytes && len(recs) > 0 {
				return errBatchFull
			}
			recs = append(recs, rec)
			bytes += len(rec.Payload) + len(rec.Session) + 16
			return nil
		})
		if err != nil && !errors.Is(err, errBatchFull) {
			switch {
			case errors.Is(err, store.ErrCursorPruned):
				l.sendErr(c, id, wire.StatusGone, "repl: "+err.Error())
			case errors.Is(err, store.ErrCursorInvalid):
				l.sendErr(c, id, wire.StatusBad, "repl: "+err.Error())
			default:
				l.sendErr(c, id, wire.StatusInternal, "repl: "+err.Error())
			}
			return
		}
		if n > 0 || first {
			buf = wire.AppendReplRecords(buf[:0], l.cfg.Epoch, cur, next, recs)
			frame := wire.AppendFrame(nil, wire.MsgReplRecords, 0, id, buf, true)
			sendNS := time.Now().UnixNano()
			if _, err := c.Write(frame); err != nil {
				return
			}
			// Remember when this frame left, keyed by its next-cursor (the
			// value the follower echoes back): the ack drain matches on it
			// to measure RTT and estimate the follower's clock offset.
			ps.mu.Lock()
			ps.streamed += uint64(n)
			ps.sent[next] = sentFrame{atNS: sendNS, total: ps.streamed}
			ps.mu.Unlock()
			l.refreshLag()
			first = false
			cur = next
			l.mx.framesOut.Inc()
			l.mx.recordsOut.Add(int64(n))
			l.mx.lag.Observe(float64(n))
			if n > 0 {
				continue // drain the backlog before sleeping
			}
		}
		select {
		case <-l.bcast.wait():
		case <-ticker.C:
		case <-l.done:
			return
		case <-dead:
			return
		}
	}
}

func (l *Leader) sendErr(c net.Conn, id uint64, status uint16, msg string) {
	c.Write(wire.AppendFrame(nil, wire.MsgErr, status, id, wire.AppendString(nil, msg), false))
}

// broadcaster fans one edge-triggered kick out to any number of
// waiters: wake closes the current generation's channel and installs a
// fresh one.
type broadcaster struct {
	mu sync.Mutex
	ch chan struct{}
}

func (b *broadcaster) init() {
	b.ch = make(chan struct{})
}

func (b *broadcaster) wait() <-chan struct{} {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.ch
}

func (b *broadcaster) wake() {
	b.mu.Lock()
	close(b.ch)
	b.ch = make(chan struct{})
	b.mu.Unlock()
}
