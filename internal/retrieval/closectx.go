package retrieval

import (
	"context"
	"errors"
	"time"
)

// ErrEngineClosed is returned after Engine.Close by everything the engine
// still gets asked to do: mutations are rejected at admission, and in-flight
// queries and refinements surface it from their next cancellation check. It
// is deliberately not context.Canceled — the server must be able to tell "we
// are shutting down" (503, retryable elsewhere) from "the client hung up"
// (499).
var ErrEngineClosed = errors.New("retrieval: engine closed")

// closeCtx is the context the engine hands its scoring and training loops:
// it delegates to the caller's context first and otherwise reports
// ErrEngineClosed once Engine.Close has run. This is how a shutdown
// interrupts in-flight work without being mistaken for the caller hanging
// up — the server maps ErrEngineClosed to 503 (retry against the next
// replica) and a genuine client cancellation to 499, and the two must stay
// distinguishable all the way up from the scan loops.
//
// It deliberately does not merge Done channels: every cancellation check on
// the engine's hot paths polls Err() between shard ranges or solver
// iterations (selecting on a channel there would cost a select per check),
// and delegating Err() to the caller keeps working even for test contexts
// that override Err() alone. Code that selects on Done() sees only the
// caller's channel and the caller's errors, which is the pre-existing
// contract for everything the engine passes a context to.
type closeCtx struct {
	caller context.Context
	engine *Engine
}

// withCloseAware wraps the caller's context (which may be nil) so the
// engine's cancellation polls observe Engine.Close.
func (e *Engine) withCloseAware(ctx context.Context) context.Context {
	return closeCtx{caller: ctx, engine: e}
}

func (c closeCtx) Deadline() (time.Time, bool) {
	if c.caller != nil {
		return c.caller.Deadline()
	}
	return time.Time{}, false
}

func (c closeCtx) Done() <-chan struct{} {
	if c.caller != nil {
		return c.caller.Done()
	}
	return nil
}

func (c closeCtx) Err() error {
	if c.caller != nil {
		if err := c.caller.Err(); err != nil {
			return err
		}
	}
	if c.engine.closed.Load() {
		return ErrEngineClosed
	}
	return nil
}

func (c closeCtx) Value(key any) any {
	if c.caller != nil {
		return c.caller.Value(key)
	}
	return nil
}
