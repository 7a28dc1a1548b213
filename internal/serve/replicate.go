package serve

import (
	"errors"
	"fmt"

	"repro/internal/obs"
	"repro/internal/store"
)

// Replication apply: how a follower manager consumes the leader's WAL
// stream. Every record flows through the normal pipeline — a create
// builds the session (and logs a create record to the follower's own
// WAL, so the follower is independently recoverable), a batch is
// enqueued through the shard pipeline (and write-ahead-logged locally
// before apply, like any other batch), a drop closes the session. The
// follower must be configured with NoCoalesce: the leader already
// logged post-coalesce batches, and the shard drain may merge several
// replicated records into one owner batch, so coalescing again across
// record boundaries would drop mutations and diverge the seq space.
//
// Redelivery is the normal case, not an error: the follower
// acknowledges lazily and resubscribes after faults from its last
// persisted cursor, so the stream's head may replay records it already
// applied. The guards below make every record idempotent — a create for
// an existing session and a drop for a missing one are skips, and a
// batch at or below the session's replicated-seq watermark is a skip —
// while a batch that does not extend the watermark contiguously is a
// gap: a protocol violation the caller must treat as fatal for the
// connection (drop it, resubscribe from the cursor).

// ErrReplGap reports a replicated batch that neither replays a prefix
// nor extends the session's seq contiguously — the stream skipped
// records.
var ErrReplGap = errors.New("serve: replicated batch leaves a seq gap")

// ApplyRecord applies one replicated WAL record through the normal
// pipeline. Idempotent under redelivery; safe only from a single
// replication goroutine (the follower's feed loop).
func (m *Manager) ApplyRecord(rec store.Record) error {
	switch rec.Kind {
	case store.RecordCreate:
		pts, measure, err := parseCreatePayload(rec.Payload)
		if err != nil {
			return fmt.Errorf("serve: replicated create %q: %w", rec.Session, err)
		}
		if _, err := m.createSession(rec.Session, pts, measure); err != nil {
			if errors.Is(err, ErrSessionExists) {
				return nil // redelivery
			}
			return fmt.Errorf("serve: replicated create %q: %w", rec.Session, err)
		}
		return nil
	case store.RecordBatch:
		s, ok := m.Session(rec.Session)
		if !ok {
			return fmt.Errorf("%w: batch seq=%d for unknown session %q", ErrReplGap, rec.Seq, rec.Session)
		}
		return s.applyReplicated(rec)
	case store.RecordDrop:
		if err := m.dropSession(rec.Session); err != nil {
			if errors.Is(err, ErrNoSession) {
				return nil // redelivery
			}
			return fmt.Errorf("serve: replicated drop %q: %w", rec.Session, err)
		}
		return nil
	}
	return fmt.Errorf("serve: replicated record has unknown kind %d", rec.Kind)
}

// applyReplicated enqueues one replicated batch record, guarding the
// replicated-seq watermark. Queue-full is absorbed here — the follower
// has no client to push 429 back to — by flushing and retrying.
func (s *Session) applyReplicated(rec store.Record) error {
	s.mu.Lock()
	watermark := s.replSeq
	s.mu.Unlock()
	if rec.Seq <= watermark {
		return nil // redelivered prefix
	}
	muts, tc, err := parseBatchPayload(rec.Payload)
	if err != nil {
		return fmt.Errorf("serve: replicated batch %q seq=%d: %w", s.id, rec.Seq, err)
	}
	if obs.On() && len(muts) > 0 && tc != nil && tc.Valid() {
		// A traced leader batch re-applies as a traced follower batch: the
		// block's span id is the leader's batch span, so the follower's
		// serve.batch span links straight back to the leader's commit.
		muts[0].TC = tc
	}
	if rec.Seq != watermark+uint64(len(muts)) {
		return fmt.Errorf("%w: session %q batch seq=%d does not extend watermark %d by %d",
			ErrReplGap, s.id, rec.Seq, watermark, len(muts))
	}
	for {
		// Pinned: one leader batch record must become exactly one local
		// batch — the maintainer's end-of-batch deferral means merged or
		// split boundaries settle on a different radius assignment than
		// the leader's.
		_, err := s.applyPinned(muts)
		if err == nil {
			break
		}
		if errors.Is(err, ErrQueueFull) {
			if ferr := s.Flush(nil); ferr != nil {
				return fmt.Errorf("serve: replicated batch %q seq=%d: drain: %w", s.id, rec.Seq, ferr)
			}
			continue
		}
		return fmt.Errorf("serve: replicated batch %q seq=%d: %w", s.id, rec.Seq, err)
	}
	s.mu.Lock()
	s.replSeq = rec.Seq
	s.mu.Unlock()
	return nil
}
