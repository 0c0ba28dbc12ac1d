package retrieval

import (
	"lrfcsvm/internal/feedbacklog"
	"lrfcsvm/internal/kernel"
)

// LogIndex returns the current epoch's log and its index from one load, as
// Session.Refine reads the index, for the external tests. It may run the
// initial epoch's once-guard: the first call builds the index.
func (e *Engine) LogIndex() (*feedbacklog.Log, *kernel.LogIndex) {
	ep := e.cur.Load()
	return ep.log, ep.index()
}
