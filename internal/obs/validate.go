package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// ValidateExposition checks that r is well-formed Prometheus text
// exposition (format 0.0.4): every non-comment line is a parseable
// sample, every sample's family has a TYPE declared before it, TYPE and
// HELP appear at most once per family, histogram families carry
// cumulative le buckets ending in +Inf with _count equal to the +Inf
// bucket, and metric/label names match the Prometheus grammar. It is
// the check behind the CI assertion that /metricsz stays scrapeable,
// and deliberately shares no code with WriteText so a formatting bug
// cannot hide from its own validator.
func ValidateExposition(r io.Reader) error {
	_, err := ParseSamples(r)
	return err
}

// Sample is one sample line of an exposition: the sample name (with
// any _bucket/_sum/_count suffix), its labels and its value.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// ParseSamples validates r as ValidateExposition does and returns its
// samples in exposition order. Tests read /metricsz values through
// it, so every value they assert on has passed the validator.
func ParseSamples(r io.Reader) ([]Sample, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	types := make(map[string]string) // family -> TYPE
	helps := make(map[string]bool)
	hist := make(map[string]*histCheck) // family+labels -> bucket state
	var samples []Sample
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := validateComment(line, types, helps); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			continue
		}
		sm, err := validateSample(line, types, hist)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		samples = append(samples, sm)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for key, h := range hist {
		if err := h.finish(); err != nil {
			return nil, fmt.Errorf("histogram %s: %w", key, err)
		}
	}
	if len(types) == 0 {
		return nil, fmt.Errorf("no metric families found")
	}
	return samples, nil
}

func validateComment(line string, types map[string]string, helps map[string]bool) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
		// Plain comments are legal and ignored.
		return nil
	}
	name := fields[2]
	if !validMetricName(name) {
		return fmt.Errorf("bad metric name %q in %s", name, fields[1])
	}
	if fields[1] == "HELP" {
		if helps[name] {
			return fmt.Errorf("duplicate HELP for %s", name)
		}
		helps[name] = true
		return nil
	}
	if _, dup := types[name]; dup {
		return fmt.Errorf("duplicate TYPE for %s", name)
	}
	if len(fields) != 4 {
		return fmt.Errorf("TYPE %s missing a type", name)
	}
	switch fields[3] {
	case "counter", "gauge", "histogram", "summary", "untyped":
	default:
		return fmt.Errorf("unknown TYPE %q for %s", fields[3], name)
	}
	types[name] = fields[3]
	return nil
}

func validateSample(line string, types map[string]string, hist map[string]*histCheck) (Sample, error) {
	name, labels, value, err := parseSample(line)
	if err != nil {
		return Sample{}, err
	}
	sm := Sample{Name: name, Labels: labels, Value: value}
	family := name
	suffix := ""
	for _, s := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, s)
		if base != name && types[base] == "histogram" {
			family, suffix = base, s
			break
		}
	}
	typ, ok := types[family]
	if !ok {
		return sm, fmt.Errorf("sample %s has no TYPE declaration", name)
	}
	if typ == "histogram" && suffix == "" {
		return sm, fmt.Errorf("histogram %s exposes bare samples (want _bucket/_sum/_count)", name)
	}
	if typ == "counter" && value < 0 {
		return sm, fmt.Errorf("counter %s has negative value %v", name, value)
	}
	if suffix != "" {
		key := family + "{" + labelsSansLe(labels) + "}"
		h := hist[key]
		if h == nil {
			h = &histCheck{}
			hist[key] = h
		}
		return sm, h.observe(suffix, labels, value)
	}
	return sm, nil
}

// parseSample splits `name{labels} value [timestamp]`.
func parseSample(line string) (name string, labels map[string]string, value float64, err error) {
	rest := line
	brace := strings.IndexByte(rest, '{')
	labels = make(map[string]string)
	if brace >= 0 {
		name = rest[:brace]
		close := strings.LastIndexByte(rest, '}')
		if close < brace {
			return "", nil, 0, fmt.Errorf("unbalanced braces in %q", line)
		}
		if err := parseLabels(rest[brace+1:close], labels); err != nil {
			return "", nil, 0, err
		}
		rest = strings.TrimSpace(rest[close+1:])
	} else {
		sp := strings.IndexAny(rest, " \t")
		if sp < 0 {
			return "", nil, 0, fmt.Errorf("sample %q has no value", line)
		}
		name = rest[:sp]
		rest = strings.TrimSpace(rest[sp:])
	}
	if !validMetricName(name) {
		return "", nil, 0, fmt.Errorf("bad metric name %q", name)
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return "", nil, 0, fmt.Errorf("sample %q: want value [timestamp]", line)
	}
	value, err = strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return "", nil, 0, fmt.Errorf("sample %q: bad value: %v", line, err)
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return "", nil, 0, fmt.Errorf("sample %q: bad timestamp: %v", line, err)
		}
	}
	return name, labels, value, nil
}

func parseLabels(s string, out map[string]string) error {
	for s != "" {
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			return fmt.Errorf("bad label pair in %q", s)
		}
		lname := s[:eq]
		if !validLabelName(lname) {
			return fmt.Errorf("bad label name %q", lname)
		}
		s = s[eq+1:]
		if len(s) == 0 || s[0] != '"' {
			return fmt.Errorf("label %s: value is not quoted", lname)
		}
		s = s[1:]
		var val strings.Builder
		for {
			if len(s) == 0 {
				return fmt.Errorf("label %s: unterminated value", lname)
			}
			c := s[0]
			s = s[1:]
			if c == '"' {
				break
			}
			if c == '\\' {
				if len(s) == 0 {
					return fmt.Errorf("label %s: dangling escape", lname)
				}
				switch s[0] {
				case '\\', '"':
					val.WriteByte(s[0])
				case 'n':
					val.WriteByte('\n')
				default:
					return fmt.Errorf("label %s: bad escape \\%c", lname, s[0])
				}
				s = s[1:]
				continue
			}
			val.WriteByte(c)
		}
		if _, dup := out[lname]; dup {
			return fmt.Errorf("duplicate label %s", lname)
		}
		out[lname] = val.String()
		s = strings.TrimPrefix(s, ",")
	}
	return nil
}

func labelsSansLe(labels map[string]string) string {
	parts := make([]string, 0, len(labels))
	for k, v := range labels {
		if k == "le" {
			continue
		}
		parts = append(parts, k+"="+v)
	}
	// Deterministic key: the label set is tiny, insertion sort via
	// strings.Join after a simple sort.
	for i := 1; i < len(parts); i++ {
		for j := i; j > 0 && parts[j] < parts[j-1]; j-- {
			parts[j], parts[j-1] = parts[j-1], parts[j]
		}
	}
	return strings.Join(parts, ",")
}

// histCheck accumulates one histogram series' invariants: le buckets
// must be non-decreasing in both bound and count, end with +Inf, and
// agree with _count.
type histCheck struct {
	lastLe    float64
	lastCount float64
	buckets   int
	sawInf    bool
	infCount  float64
	count     float64
	sawCount  bool
}

func (h *histCheck) observe(suffix string, labels map[string]string, value float64) error {
	switch suffix {
	case "_bucket":
		le, ok := labels["le"]
		if !ok {
			return fmt.Errorf("_bucket sample without le label")
		}
		bound, err := parseLe(le)
		if err != nil {
			return err
		}
		if h.buckets > 0 && bound <= h.lastLe {
			return fmt.Errorf("le buckets out of order (%v after %v)", bound, h.lastLe)
		}
		if value < h.lastCount {
			return fmt.Errorf("bucket counts not cumulative (%v after %v)", value, h.lastCount)
		}
		h.lastLe, h.lastCount = bound, value
		h.buckets++
		if le == "+Inf" {
			h.sawInf, h.infCount = true, value
		}
	case "_count":
		h.sawCount, h.count = true, value
	case "_sum":
		// Sums are unconstrained beyond being a float, already parsed.
	}
	return nil
}

func (h *histCheck) finish() error {
	if !h.sawInf {
		return fmt.Errorf("missing +Inf bucket")
	}
	if h.sawCount && h.count != h.infCount {
		return fmt.Errorf("_count %v != +Inf bucket %v", h.count, h.infCount)
	}
	return nil
}

func parseLe(le string) (float64, error) {
	if le == "+Inf" {
		return math.Inf(1), nil
	}
	v, err := strconv.ParseFloat(le, 64)
	if err != nil {
		return 0, fmt.Errorf("bad le %q: %v", le, err)
	}
	return v, nil
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}
