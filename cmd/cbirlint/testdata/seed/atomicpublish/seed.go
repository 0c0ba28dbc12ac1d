// Package seed carries one known atomicpublish violation for the CI
// self-test.
package seed

import "sync/atomic"

type state struct {
	epoch int64
}

// Publish moves the epoch through sync/atomic's function API.
func (s *state) Publish() {
	atomic.AddInt64(&s.epoch, 1)
}
