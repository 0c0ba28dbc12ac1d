package metrics

import (
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	for range 6 {
		c.Inc()
	}
	if got := c.Value(); got != 6 {
		t.Errorf("counter: got %d, want 6", got)
	}
}

func TestGaugeBasics(t *testing.T) {
	var g Gauge
	if got := g.Value(); got != 0 {
		t.Errorf("zero gauge: got %v, want 0", got)
	}
	g.Add(2.5)
	g.Inc()
	g.Dec()
	g.Add(-0.5)
	if got := g.Value(); got != 2 {
		t.Errorf("gauge: got %v, want 2", got)
	}
}

func TestGaugeConcurrentAdd(t *testing.T) {
	var g Gauge
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				g.Inc()
				g.Dec()
			}
		}()
	}
	wg.Wait()
	if got := g.Value(); got != 0 {
		t.Errorf("balanced inc/dec: got %v, want 0", got)
	}
}

func TestRegistryIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("requests_total", "help", Labels{{Name: "endpoint", Value: "query"}})
	b := r.Counter("requests_total", "help", Labels{{Name: "endpoint", Value: "query"}})
	if a != b {
		t.Error("same (name, labels) must return the same counter")
	}
	c := r.Counter("requests_total", "help", Labels{{Name: "endpoint", Value: "judge"}})
	if a == c {
		t.Error("different labels must return a different counter")
	}
	// Label order must not matter for identity.
	h1 := r.Histogram("latency_seconds", "help", Labels{{Name: "a", Value: "1"}, {Name: "b", Value: "2"}}, nil)
	h2 := r.Histogram("latency_seconds", "help", Labels{{Name: "b", Value: "2"}, {Name: "a", Value: "1"}}, nil)
	if h1 != h2 {
		t.Error("label order must not change series identity")
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "help", nil)
	defer func() {
		if recover() == nil {
			t.Error("registering a gauge under a counter name did not panic")
		}
	}()
	r.Gauge("m", "help", nil)
}

func TestRegistryInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	for _, bad := range []string{"", "9leading", "has-dash", "has space"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q did not panic", bad)
				}
			}()
			r.Counter(bad, "help", nil)
		}()
	}
	for _, bad := range []string{"", "__reserved", "le:colon", "9x"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("label name %q did not panic", bad)
				}
			}()
			r.Counter("ok_name", "help", Labels{{Name: bad, Value: "v"}})
		}()
	}
}

func TestRegistryDuplicateFuncSeriesPanics(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("fn_gauge", "help", nil, func() float64 { return 1 })
	defer func() {
		if recover() == nil {
			t.Error("duplicate GaugeFunc series did not panic")
		}
	}()
	r.GaugeFunc("fn_gauge", "help", nil, func() float64 { return 2 })
}
