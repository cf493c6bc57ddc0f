package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/latency"
)

// Label is one constant metric label (e.g. phase="rewrite"). Labels are
// fixed at registration; this registry has no dynamic label values, so
// the exposition can never grow without bound.
type Label struct {
	Name  string
	Value string
}

// L is shorthand for building a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// metricKind tags a series with its exposition TYPE.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one labeled instance of a metric family.
type series struct {
	labels    []Label
	counter   func() uint64           // kindCounter
	gauge     func() float64          // kindGauge
	histogram func() latency.Snapshot // kindHistogram
}

// family groups the series sharing one metric name (one HELP/TYPE
// block in the exposition).
type family struct {
	name   string
	help   string
	kind   metricKind
	series []*series
}

// Registry holds a process-local set of metrics and renders them in the
// Prometheus text exposition format. Registration happens at server
// construction; every series reads its value from the function it was
// registered with, at exposition time. WriteText reads the families in
// the order they were first registered, and each family's series in
// registration order; callers that need a consistent snapshot order
// their registrations (see serve.Server.registerMetrics). Registration
// and WriteText are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

func (r *Registry) register(name, help string, kind metricKind, s *series) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.byName[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind}
		r.byName[name] = f
		r.families = append(r.families, f)
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as both %v and %v", name, f.kind, kind))
	}
	f.series = append(f.series, s)
}

// CounterFunc registers a counter whose value is read from fn at
// exposition time — the bridge for counters that already exist as
// atomics elsewhere (the serve package's request counters), so the
// metrics endpoint never double-counts.
func (r *Registry) CounterFunc(name, help string, fn func() uint64, labels ...Label) {
	r.register(name, help, kindCounter, &series{labels: labels, counter: fn})
}

// GaugeFunc registers a gauge read from fn at exposition time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, kindGauge, &series{labels: labels, gauge: fn})
}

// HistogramFunc registers a histogram whose snapshot is read from fn at
// exposition time — the bridge for digests that already exist elsewhere
// (the server's request-latency and per-phase digests), so the
// exposition renders the digest itself and never keeps a second copy.
// The histogram is exposed in seconds, the convention for
// *_duration_seconds metrics; the digest stays nanosecond-based.
func (r *Registry) HistogramFunc(name, help string, fn func() latency.Snapshot, labels ...Label) {
	r.register(name, help, kindHistogram, &series{labels: labels, histogram: fn})
}

// bucketLeSeconds are the exposition 'le' values: the shared latency
// ladder converted from durations to seconds, computed once.
var bucketLeSeconds = func() []string {
	out := make([]string, len(latency.Bounds))
	for i, b := range latency.Bounds {
		out[i] = strconv.FormatFloat(b.Seconds(), 'g', -1, 64)
	}
	return out
}()

// WriteText renders every registered metric in the Prometheus text
// exposition format (version 0.0.4): HELP and TYPE per family, then one
// sample line per series — plain values for counters and gauges,
// cumulative le buckets plus _sum (seconds) and _count for histograms.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	families := append([]*family(nil), r.families...)
	r.mu.Unlock()
	var b strings.Builder
	for _, f := range families {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range f.series {
			switch f.kind {
			case kindCounter:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, renderLabels(s.labels), s.counter())
			case kindGauge:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, renderLabels(s.labels),
					strconv.FormatFloat(s.gauge(), 'g', -1, 64))
			case kindHistogram:
				writeHistogram(&b, f.name, s)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writeHistogram(b *strings.Builder, name string, s *series) {
	snap := s.histogram()
	cum := uint64(0)
	for i, le := range bucketLeSeconds {
		cum += snap.Buckets[i]
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, renderLabels(s.labels, L("le", le)), cum)
	}
	cum += snap.Buckets[latency.NumBuckets-1]
	fmt.Fprintf(b, "%s_bucket%s %d\n", name, renderLabels(s.labels, L("le", "+Inf")), cum)
	fmt.Fprintf(b, "%s_sum%s %s\n", name, renderLabels(s.labels),
		strconv.FormatFloat(float64(snap.SumNs)/1e9, 'g', -1, 64))
	fmt.Fprintf(b, "%s_count%s %d\n", name, renderLabels(s.labels), cum)
}

// renderLabels renders `{k="v",...}` with label names sorted, or "" for
// no labels.
func renderLabels(labels []Label, extra ...Label) string {
	all := append(append([]Label(nil), labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Name < all[j].Name })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range all {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

func escapeHelp(h string) string {
	h = strings.ReplaceAll(h, `\`, `\\`)
	h = strings.ReplaceAll(h, "\n", `\n`)
	return h
}
