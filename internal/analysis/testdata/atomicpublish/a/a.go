// Package a is the atomicpublish fixture: every use of sync/atomic's
// function API is reported; the typed atomics' methods are not.
package a

import "sync/atomic"

type counter struct {
	seq   int64
	typed atomic.Int64
}

func (c *counter) bump() int64 {
	return atomic.AddInt64(&c.seq, 1) // want `atomic\.AddInt64 leaves its operand open`
}

func (c *counter) read() int64 {
	return atomic.LoadInt64(&c.seq) // want `atomic\.LoadInt64 leaves its operand open`
}

// load takes the function as a value: a use all the same.
var load = atomic.LoadInt64 // want `atomic\.LoadInt64 leaves its operand open`

// typedOps use a typed atomic, whose API has no plain access: fine.
func (c *counter) typedOps() int64 {
	c.typed.Add(1)
	c.typed.CompareAndSwap(1, 2)
	return c.typed.Load()
}

var _ = (*counter).bump
var _ = (*counter).read
var _ = (*counter).typedOps
var _ = load
