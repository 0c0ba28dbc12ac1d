package metrics

import (
	"strings"
	"testing"
)

// TestWriteTextGolden pins the full rendered exposition for a registry
// exercising every metric kind, then proves the output satisfies the
// hand-rolled format validator. Byte-for-byte pinning keeps accidental
// format drift (ordering, spacing, escaping) from slipping past review.
func TestWriteTextGolden(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("http_requests_total", "Requests served.", Labels{
		{Name: "endpoint", Value: "query"}, {Name: "code", Value: "200"},
	})
	for range 42 {
		c.Inc()
	}
	r.CounterFunc("journal_records_total", "Journal records appended.", nil, func() int64 { return 7 })
	g := r.Gauge("inflight_requests", "Requests currently in flight.", Labels{{Name: "endpoint", Value: "query"}})
	g.Add(3)
	r.GaugeFunc("engine_epoch", "Engine collection epoch.", nil, func() float64 { return 12 })
	h := r.Histogram("request_duration_seconds", "Request latency.", Labels{{Name: "endpoint", Value: "query"}}, []float64{0.01, 0.1, 1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(0.05)
	h.Observe(5)

	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	got := sb.String()
	want := `# HELP http_requests_total Requests served.
# TYPE http_requests_total counter
http_requests_total{endpoint="query",code="200"} 42
# HELP journal_records_total Journal records appended.
# TYPE journal_records_total counter
journal_records_total 7
# HELP inflight_requests Requests currently in flight.
# TYPE inflight_requests gauge
inflight_requests{endpoint="query"} 3
# HELP engine_epoch Engine collection epoch.
# TYPE engine_epoch gauge
engine_epoch 12
# HELP request_duration_seconds Request latency.
# TYPE request_duration_seconds histogram
request_duration_seconds_bucket{endpoint="query",le="0.01"} 1
request_duration_seconds_bucket{endpoint="query",le="0.1"} 3
request_duration_seconds_bucket{endpoint="query",le="1"} 3
request_duration_seconds_bucket{endpoint="query",le="+Inf"} 4
request_duration_seconds_sum{endpoint="query"} 5.105
request_duration_seconds_count{endpoint="query"} 4
`
	if got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	if err := ValidateExposition(got); err != nil {
		t.Errorf("golden output fails the validator: %v", err)
	}
}

func TestWriteTextEscaping(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("weird_total", "help with\nnewline and back\\slash", Labels{
		{Name: "path", Value: `a"b\c` + "\nd"},
	})
	c.Inc()
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	got := sb.String()
	if !strings.Contains(got, `# HELP weird_total help with\nnewline and back\\slash`) {
		t.Errorf("help not escaped:\n%s", got)
	}
	if !strings.Contains(got, `weird_total{path="a\"b\\c\nd"} 1`) {
		t.Errorf("label value not escaped:\n%s", got)
	}
	if err := ValidateExposition(got); err != nil {
		t.Errorf("escaped output fails the validator: %v", err)
	}
	// Round trip: the validator's parser must recover the original value.
	name, labels, _, err := parseSample(`weird_total{path="a\"b\\c\nd"} 1`)
	if err != nil {
		t.Fatalf("parseSample: %v", err)
	}
	if name != "weird_total" || len(labels) != 1 || labels[0].Value != "a\"b\\c\nd" {
		t.Errorf("round trip lost the label value: %+v", labels)
	}
}

func TestValidateExpositionRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		text string
	}{
		{"no TYPE", "foo 1\n"},
		{"bad metric name", "# TYPE 9foo counter\n9foo 1\n"},
		{"bad value", "# TYPE foo counter\nfoo abc\n"},
		{"unknown type", "# TYPE foo widget\nfoo 1\n"},
		{"TYPE after sample", "# TYPE foo counter\nfoo 1\n# TYPE foo counter\n"},
		{"duplicate series", "# TYPE foo counter\nfoo 1\nfoo 2\n"},
		{"unquoted label", "# TYPE foo counter\nfoo{a=b} 1\n"},
		{"unterminated label", "# TYPE foo counter\nfoo{a=\"b} 1\n"},
		{"duplicate label", "# TYPE foo counter\nfoo{a=\"1\",a=\"2\"} 1\n"},
		{"bad escape", "# TYPE foo counter\nfoo{a=\"\\t\"} 1\n"},
		{
			"histogram missing +Inf",
			"# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
		},
		{
			"histogram decreasing cumulative",
			"# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n",
		},
		{
			"histogram +Inf != count",
			"# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n",
		},
		{
			"histogram non-increasing le",
			"# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n",
		},
		{
			"histogram missing sum",
			"# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_count 1\n",
		},
		{
			"histogram bucket without le",
			"# TYPE h histogram\nh_bucket 1\nh_sum 1\nh_count 1\n",
		},
	}
	for _, tc := range cases {
		if err := ValidateExposition(tc.text); err == nil {
			t.Errorf("%s: validator accepted malformed input:\n%s", tc.name, tc.text)
		}
	}
}

func TestValidateExpositionAcceptsEdgeCases(t *testing.T) {
	ok := []string{
		"",
		"# just a comment\n",
		"# TYPE foo counter\nfoo 1 1712345678\n", // optional timestamp
		"# TYPE foo gauge\nfoo{a=\"x\"} +Inf\nfoo{a=\"y\"} NaN\n",
		// A plain counter whose name ends in _count is not a histogram child.
		"# TYPE items_count counter\nitems_count 5\n",
		"# TYPE h histogram\nh_bucket{le=\"0.1\"} 0\nh_bucket{le=\"+Inf\"} 0\nh_sum 0\nh_count 0\n",
	}
	for _, text := range ok {
		if err := ValidateExposition(text); err != nil {
			t.Errorf("validator rejected valid input: %v\n%s", err, text)
		}
	}
}
