package retrieval

import (
	"lrfcsvm/internal/kernel"
	"lrfcsvm/internal/sparse"
)

// LogColumns is the log-column cache and session index as Session.Refine
// reads them, for the external model test.
func (e *Engine) LogColumns() ([]*sparse.Vector, *kernel.SparseSVIndex) {
	return e.logColumns(e.cur.Load())
}
