package retrieval

import "lrfcsvm/internal/sparse"

// LogColumns is the log-column cache as Session.Refine reads it, for the external model test.
func (e *Engine) LogColumns() []*sparse.Vector { return e.logColumns(e.cur.Load()) }
