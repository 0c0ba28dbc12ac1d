package retrieval

import "lrfcsvm/internal/kernel"

// LogIndex is the log index as Session.Refine reads it, for the external
// model test.
func (e *Engine) LogIndex() *kernel.LogIndex { return e.logIndexed() }
