package core

import (
	"testing"
)

// TestPretrained2SVMsValidates checks the pretrained path keeps the scheme's
// log requirement.
func TestPretrained2SVMsValidates(t *testing.T) {
	coll := makeCollection(t, 3, 10, 30, 0, 22)
	ctx := coll.queryContext(2, 8)
	ctx.LogVectors = nil
	if _, err := (LRF2SVMs{}).Pretrain(ctx); err == nil {
		t.Fatal("Pretrain accepted a context without log vectors")
	}
}
