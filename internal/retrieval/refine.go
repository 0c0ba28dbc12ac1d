package retrieval

import (
	"context"
	"errors"
	"fmt"
)

// ErrTooManyRefines is returned (wrapped) by Session.RefineAsync when the
// engine-wide pending cap (maxPendingRefines) is reached. Callers
// can match it with errors.Is to distinguish backpressure — worth retrying
// later — from request errors that will never succeed.
var ErrTooManyRefines = errors.New("retrieval: too many pending refinements")

// ErrEngineClosed is returned after Engine.Close by everything the engine
// still gets asked to do: new RefineAsync submissions and mutations are
// rejected at admission, and in-flight queries and synchronous refinements
// surface it from their next cancellation check. It is deliberately not
// context.Canceled — the server must be able to tell "we are shutting
// down" (503, retryable elsewhere) from "the client hung up" (499).
var ErrEngineClosed = errors.New("retrieval: engine closed")

// RefineState is the lifecycle state of one asynchronous refinement round.
type RefineState string

// Round states: a submitted round is pending until a training worker picks
// it up, running while it trains and ranks, and finally done or failed.
const (
	RefinePending RefineState = "pending"
	RefineRunning RefineState = "running"
	RefineDone    RefineState = "done"
	RefineFailed  RefineState = "failed"
)

// RefineRound is the observable snapshot of one asynchronous refinement
// round. Results is populated when State is RefineDone, Err when it is
// RefineFailed.
type RefineRound struct {
	// Token identifies the round within its session; tokens increase in
	// submission order.
	Token  int
	Scheme SchemeKind
	K      int
	State  RefineState
	// Results is the bounded ranking produced by the round. It must be
	// treated as read-only: completed rounds share it with every poller.
	Results []Result
	Err     string
}

// refineRound is the mutable server-side state behind a RefineRound
// snapshot, guarded by its session's mutex.
type refineRound struct {
	RefineRound
}

// RefineAsync submits a refinement round to the engine's bounded training
// pool and returns its round token immediately. The round trains and ranks
// in the background against the collection epoch current when it runs;
// poll it with RefineStatus, or read the most recent successful round with
// LatestRefined — until a new round lands, readers keep being served the
// previous good one (the same publish-then-swap discipline the collection
// epochs use). Rounds of one session may complete out of order when the
// pool has spare workers; LatestRefined only ever moves forward in token
// order, and failed rounds never displace it.
//
// RefineAsync fails fast when the engine-wide pending cap
// (maxPendingRefines) is reached, so a burst of feedback traffic
// degrades into rejected rounds instead of unbounded queued training work.
// The submitted round runs under the engine's base context (cancelled by
// Engine.Close), bounded by Options.RefineTimeout — not under the caller's
// context, which typically belongs to the HTTP request that submitted the
// round and dies as soon as the response is written. The caller's context
// only gates admission: a submission whose context is already cancelled is
// rejected without queueing a round.
func (s *Session) RefineAsync(ctx context.Context, kind SchemeKind, k int) (int, error) {
	e := s.engine
	if _, err := e.scheme(kind); err != nil {
		return 0, err
	}
	if e.closed.Load() {
		return 0, ErrEngineClosed
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
	}
	// Same precondition as the synchronous path, checked at submission so
	// the caller learns about an unusable round before polling it.
	s.mu.Lock()
	if len(s.judgments) == 0 && kind != SchemeEuclidean {
		s.mu.Unlock()
		return 0, fmt.Errorf("retrieval: scheme %q needs at least one judgment", kind)
	}
	s.mu.Unlock()

	// Admission control: count the round before publishing it, backing out
	// on overflow, so concurrent submissions cannot exceed the cap.
	if e.pendingRefines.Add(1) > maxPendingRefines {
		e.pendingRefines.Add(-1)
		return 0, fmt.Errorf("%w: %d already pending, try again later", ErrTooManyRefines, maxPendingRefines)
	}

	s.mu.Lock()
	s.nextToken++
	token := s.nextToken
	round := &refineRound{RefineRound{Token: token, Scheme: kind, K: k, State: RefinePending}}
	if s.rounds == nil {
		s.rounds = make(map[int]*refineRound)
	}
	s.rounds[token] = round
	s.pendingRounds.Add(1)
	// Retention: completed rounds older than the most recent
	// maxRetainedRounds are pruned (their tokens stop resolving), so a
	// long-lived session submitting rounds steadily holds a bounded set
	// of rankings rather than every ranking it ever trained. Pending and
	// running rounds are always kept.
	for t, r := range s.rounds {
		if t <= token-maxRetainedRounds && (r.State == RefineDone || r.State == RefineFailed) {
			delete(s.rounds, t)
		}
	}
	s.mu.Unlock()

	go s.runRefineRound(round, kind, k)
	return token, nil
}

// maxRetainedRounds bounds the completed asynchronous rounds a session
// keeps addressable by token; see RefineAsync.
const maxRetainedRounds = 32

// runRefineRound executes one submitted round on the bounded training pool.
// It runs under the engine's base context so Engine.Close stops queued and
// running rounds promptly; Options.RefineTimeout additionally bounds the
// round from the moment a worker picks it up. A cancelled round lands in
// RefineFailed and is never published (publishRound only moves RefineDone
// snapshots), so readers keep the previous good ranking.
func (s *Session) runRefineRound(round *refineRound, kind SchemeKind, k int) {
	e := s.engine
	defer e.pendingRefines.Add(-1)
	select {
	case e.trainSem <- struct{}{}:
	case <-e.baseCtx.Done():
		// Shut down while queued: fail the round without training.
		s.mu.Lock()
		round.State = RefineFailed
		round.Err = e.baseCtx.Err().Error()
		s.pendingRounds.Add(-1)
		s.mu.Unlock()
		return
	}
	defer func() { <-e.trainSem }()

	rctx := e.baseCtx
	if e.opts.RefineTimeout > 0 {
		var cancel context.CancelFunc
		rctx, cancel = context.WithTimeout(rctx, e.opts.RefineTimeout)
		defer cancel()
	}

	s.mu.Lock()
	round.State = RefineRunning
	s.mu.Unlock()

	results, err := s.refineGuarded(rctx, kind, k)

	s.mu.Lock()
	if err != nil {
		round.State = RefineFailed
		round.Err = err.Error()
	} else {
		round.State = RefineDone
		round.Results = results
	}
	// Decrement inside the critical section that publishes the final state:
	// any observer that sees the round completed (RefineStatus takes mu)
	// also sees it gone from the pending count.
	s.pendingRounds.Add(-1)
	snapshot := round.RefineRound
	s.mu.Unlock()
	s.publishRound(snapshot)
}

// publishRound publishes a completed round for lock-free LatestRefined
// readers — but only a successful one: a failed round stays inspectable by
// token while readers keep being served the previous good ranking. And
// only moving forward: a slow early round must not displace a newer one
// that already landed.
func (s *Session) publishRound(snapshot RefineRound) {
	if snapshot.State != RefineDone {
		return
	}
	for {
		cur := s.latest.Load()
		if cur != nil && cur.Token >= snapshot.Token {
			return
		}
		if s.latest.CompareAndSwap(cur, &snapshot) {
			return
		}
	}
}

// refineGuarded runs one synchronous refinement, converting a panic into a
// failed round. The synchronous HTTP path gets this for free from
// net/http's per-connection recovery; on the async pool's bare goroutine a
// panic would otherwise take down the whole process.
func (s *Session) refineGuarded(ctx context.Context, kind SchemeKind, k int) (results []Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			results, err = nil, fmt.Errorf("retrieval: refinement round panicked: %v", r)
		}
	}()
	return s.Refine(ctx, kind, k)
}

// RefineStatus returns a snapshot of the given round. The second return is
// false when the token does not name a round of this session.
func (s *Session) RefineStatus(token int) (RefineRound, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	round, ok := s.rounds[token]
	if !ok {
		return RefineRound{}, false
	}
	return round.RefineRound, true
}

// LatestRefined returns the most recent successfully completed
// asynchronous round of this session, lock-free; failed rounds never
// displace it (they stay inspectable through RefineStatus). The second
// return is false while no round has succeeded yet — the caller should
// keep serving whatever ranking it already has (typically the initial
// query results).
func (s *Session) LatestRefined() (RefineRound, bool) {
	if r := s.latest.Load(); r != nil {
		return *r, true
	}
	return RefineRound{}, false
}

// PendingRefines returns the number of this session's asynchronous rounds
// still pending or running. The server's session sweeper consults it before
// evicting: dropping a session mid-round would let the background training
// keep working into an unreachable session and silently lose its result.
// It is a single atomic load — eviction scans call it per table entry and
// must not contend on the session's mutex.
func (s *Session) PendingRefines() int {
	return int(s.pendingRounds.Load())
}

// PendingRefines returns the number of asynchronous refinement rounds
// currently queued or running engine-wide.
func (e *Engine) PendingRefines() int { return int(e.pendingRefines.Load()) }
