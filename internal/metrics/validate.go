package metrics

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// ValidateExposition checks that text is well-formed Prometheus text
// exposition (format version 0.0.4) and that every histogram satisfies the
// format's structural invariants. It is the hand-rolled counterpart of a
// scraper's parser — no external dependency — and is used by the golden
// tests and the server's traffic tests to prove a /metrics scrape would be
// ingestible.
//
// Checked per line:
//   - comment lines are # HELP <name> <text> or # TYPE <name> <type> with a
//     valid metric name and a known type, each appearing at most once per
//     name, with TYPE preceding that family's first sample;
//   - sample lines parse as name[{label="value",...}] value [timestamp]
//     with valid metric and label names, properly quoted and escaped label
//     values, no duplicate label names, and a float-parsable value.
//
// Checked per histogram family (grouped by the non-le label set):
//   - every _bucket sample carries an le label whose value parses;
//   - bucket le values are strictly increasing with a final le="+Inf";
//   - cumulative bucket counts are non-decreasing;
//   - _sum and _count are present exactly once and the +Inf bucket equals
//     _count;
//   - no duplicate le and no duplicate non-histogram series either.
func ValidateExposition(text string) error {
	v := &validator{
		typed:      make(map[string]string),
		helped:     make(map[string]bool),
		sampled:    make(map[string]bool),
		seen:       make(map[string]bool),
		histograms: make(map[string]*histSeries),
	}
	for i, line := range strings.Split(text, "\n") {
		lineNo := i + 1
		if line == "" {
			continue
		}
		if err := v.line(line); err != nil {
			return fmt.Errorf("line %d: %w (%q)", lineNo, err, line)
		}
	}
	return v.finish()
}

// histSeries accumulates one histogram series' buckets across lines.
type histSeries struct {
	buckets  []bucket
	sumSeen  bool
	count    uint64
	countSet bool
}

type bucket struct {
	le    float64
	isInf bool
	count uint64
}

type validator struct {
	typed      map[string]string // family -> TYPE
	helped     map[string]bool
	sampled    map[string]bool // family has emitted samples
	seen       map[string]bool // full series key -> present (duplicate detection)
	histograms map[string]*histSeries
}

func (v *validator) line(line string) error {
	if strings.HasPrefix(line, "#") {
		return v.comment(line)
	}
	return v.sample(line)
}

func (v *validator) comment(line string) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 3 || fields[0] != "#" {
		return fmt.Errorf("malformed comment")
	}
	name := fields[2]
	if !validName(name, true) {
		return fmt.Errorf("invalid metric name %q", name)
	}
	switch fields[1] {
	case "HELP":
		if v.helped[name] {
			return fmt.Errorf("duplicate HELP for %s", name)
		}
		v.helped[name] = true
	case "TYPE":
		if len(fields) != 4 {
			return fmt.Errorf("TYPE needs a type")
		}
		switch fields[3] {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("unknown type %q", fields[3])
		}
		if _, dup := v.typed[name]; dup {
			return fmt.Errorf("duplicate TYPE for %s", name)
		}
		if v.sampled[name] {
			return fmt.Errorf("TYPE for %s after its samples", name)
		}
		v.typed[name] = fields[3]
	default:
		// Other comments are legal free text.
	}
	return nil
}

func (v *validator) sample(line string) error {
	name, labels, rest, err := parseSample(line)
	if err != nil {
		return err
	}
	valueFields := strings.Fields(rest)
	if len(valueFields) == 0 || len(valueFields) > 2 {
		return fmt.Errorf("want value [timestamp], got %q", rest)
	}
	value, err := parseExpoFloat(valueFields[0])
	if err != nil {
		return fmt.Errorf("bad sample value %q", valueFields[0])
	}
	if len(valueFields) == 2 {
		if _, err := strconv.ParseInt(valueFields[1], 10, 64); err != nil {
			return fmt.Errorf("bad timestamp %q", valueFields[1])
		}
	}

	family, role := histogramFamily(name, v.typed)
	v.sampled[family] = true
	if _, ok := v.typed[family]; !ok {
		return fmt.Errorf("sample for %s without a TYPE line", family)
	}

	if role == "" {
		key := name + plainSignature(labels)
		if v.seen[key] {
			return fmt.Errorf("duplicate series %s", key)
		}
		v.seen[key] = true
		return nil
	}

	// Histogram child sample: group by the non-le label set.
	le, rest2 := splitLe(labels)
	key := family + plainSignature(rest2)
	h := v.histograms[key]
	if h == nil {
		h = &histSeries{}
		v.histograms[key] = h
	}
	switch role {
	case "bucket":
		if le == nil {
			return fmt.Errorf("%s_bucket without an le label", family)
		}
		b := bucket{count: uint64(value)}
		if value < 0 || value != math.Trunc(value) {
			return fmt.Errorf("bucket count %v is not a non-negative integer", value)
		}
		if *le == "+Inf" {
			b.isInf = true
		} else {
			f, err := parseExpoFloat(*le)
			if err != nil {
				return fmt.Errorf("bad le value %q", *le)
			}
			b.le = f
		}
		h.buckets = append(h.buckets, b)
	case "sum":
		if h.sumSeen {
			return fmt.Errorf("duplicate %s_sum%s", family, plainSignature(rest2))
		}
		h.sumSeen = true
	case "count":
		if h.countSet {
			return fmt.Errorf("duplicate %s_count%s", family, plainSignature(rest2))
		}
		if value < 0 || value != math.Trunc(value) {
			return fmt.Errorf("count %v is not a non-negative integer", value)
		}
		h.count = uint64(value)
		h.countSet = true
	}
	return nil
}

// finish runs the cross-line histogram invariants once every sample has
// been folded in.
func (v *validator) finish() error {
	keys := make([]string, 0, len(v.histograms))
	for k := range v.histograms {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		h := v.histograms[k]
		if len(h.buckets) == 0 {
			return fmt.Errorf("histogram %s has no buckets", k)
		}
		last := h.buckets[len(h.buckets)-1]
		if !last.isInf {
			return fmt.Errorf("histogram %s is missing the le=\"+Inf\" bucket", k)
		}
		var prevLe float64 = math.Inf(-1)
		var prevCount uint64
		for i, b := range h.buckets {
			if b.isInf && i != len(h.buckets)-1 {
				return fmt.Errorf("histogram %s has le=\"+Inf\" before the last bucket", k)
			}
			if !b.isInf {
				if b.le <= prevLe {
					return fmt.Errorf("histogram %s bucket bounds are not strictly increasing at le=%v", k, b.le)
				}
				prevLe = b.le
			}
			if b.count < prevCount {
				return fmt.Errorf("histogram %s cumulative counts decrease at le bucket %d", k, i)
			}
			prevCount = b.count
		}
		if !h.sumSeen {
			return fmt.Errorf("histogram %s is missing _sum", k)
		}
		if !h.countSet {
			return fmt.Errorf("histogram %s is missing _count", k)
		}
		if last.count != h.count {
			return fmt.Errorf("histogram %s +Inf bucket (%d) != _count (%d)", k, last.count, h.count)
		}
	}
	return nil
}

// histogramFamily resolves a sample name to its family and its histogram
// role ("bucket", "sum", "count", or "" for a plain sample). A _bucket/_sum/
// _count suffix only counts when the stripped base name was declared a
// histogram — a plain counter legitimately named *_count must not be
// misparsed as a histogram child.
func histogramFamily(name string, typed map[string]string) (family, role string) {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, suffix) {
			base := strings.TrimSuffix(name, suffix)
			if typed[base] == "histogram" {
				return base, suffix[1:]
			}
		}
	}
	return name, ""
}

// splitLe extracts the le label (if any) and returns the remaining labels.
func splitLe(labels []Label) (*string, []Label) {
	rest := make([]Label, 0, len(labels))
	var le *string
	for _, l := range labels {
		if l.Name == "le" {
			v := l.Value
			le = &v
			continue
		}
		rest = append(rest, l)
	}
	return le, rest
}

// plainSignature renders a label set as a canonical sorted key.
func plainSignature(labels []Label) string {
	sorted := append([]Label(nil), labels...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	sig := "{"
	for _, l := range sorted {
		sig += l.Name + "=" + strconv.Quote(l.Value) + ","
	}
	return sig + "}"
}

// parseExpoFloat parses a sample or le value, accepting the exposition
// spellings of the non-finite values.
func parseExpoFloat(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// parseSample splits one sample line into name, labels and the value
// remainder, validating names, quoting and escapes.
func parseSample(line string) (name string, labels []Label, rest string, err error) {
	brace := strings.IndexByte(line, '{')
	space := strings.IndexByte(line, ' ')
	if brace == -1 || (space != -1 && space < brace) {
		// No label set.
		if space == -1 {
			return "", nil, "", fmt.Errorf("sample without a value")
		}
		name = line[:space]
		if !validName(name, true) {
			return "", nil, "", fmt.Errorf("invalid metric name %q", name)
		}
		return name, nil, line[space+1:], nil
	}
	name = line[:brace]
	if !validName(name, true) {
		return "", nil, "", fmt.Errorf("invalid metric name %q", name)
	}
	labels, rest, err = parseLabels(line[brace+1:])
	if err != nil {
		return "", nil, "", err
	}
	seen := make(map[string]bool, len(labels))
	for _, l := range labels {
		if !validName(l.Name, false) {
			return "", nil, "", fmt.Errorf("invalid label name %q", l.Name)
		}
		if seen[l.Name] {
			return "", nil, "", fmt.Errorf("duplicate label %q", l.Name)
		}
		seen[l.Name] = true
	}
	rest = strings.TrimPrefix(rest, " ")
	if rest == "" {
		return "", nil, "", fmt.Errorf("sample without a value")
	}
	return name, labels, rest, nil
}

// parseLabels consumes `name="value",...}` and returns what follows the
// closing brace.
func parseLabels(s string) ([]Label, string, error) {
	var labels []Label
	for {
		s = strings.TrimLeft(s, " ")
		if strings.HasPrefix(s, "}") {
			return labels, s[1:], nil
		}
		eq := strings.IndexByte(s, '=')
		if eq == -1 {
			return nil, "", fmt.Errorf("label without '='")
		}
		lname := strings.TrimSpace(s[:eq])
		s = s[eq+1:]
		if !strings.HasPrefix(s, `"`) {
			return nil, "", fmt.Errorf("label value for %q is not quoted", lname)
		}
		s = s[1:]
		var value strings.Builder
		for {
			if s == "" {
				return nil, "", fmt.Errorf("unterminated label value for %q", lname)
			}
			c := s[0]
			s = s[1:]
			if c == '"' {
				break
			}
			if c == '\\' {
				if s == "" {
					return nil, "", fmt.Errorf("dangling escape in label value for %q", lname)
				}
				e := s[0]
				s = s[1:]
				switch e {
				case '\\':
					value.WriteByte('\\')
				case '"':
					value.WriteByte('"')
				case 'n':
					value.WriteByte('\n')
				default:
					return nil, "", fmt.Errorf("unknown escape \\%c in label value for %q", e, lname)
				}
				continue
			}
			value.WriteByte(c)
		}
		labels = append(labels, Label{Name: lname, Value: value.String()})
		s = strings.TrimLeft(s, " ")
		if strings.HasPrefix(s, ",") {
			s = s[1:]
			continue
		}
		if strings.HasPrefix(s, "}") {
			return labels, s[1:], nil
		}
		return nil, "", fmt.Errorf("expected ',' or '}' after label %q", lname)
	}
}
