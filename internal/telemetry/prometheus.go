package telemetry

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ContentType is the Prometheus text exposition format version served by
// WritePrometheus (set it as the Content-Type of a /metrics response).
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// expositionBounds are the `le` boundaries (in seconds) histograms are
// summarized under in the exposition. They are fixed — independent of the
// data — so scrape output is stable and cross-run comparable; the
// fine-grained log buckets behind them keep full resolution for
// quantiles. The spread covers sub-millisecond queue waits up to
// multi-minute experiment runs.
var expositionBounds = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300,
}

// countBounds are the `le` boundaries for UnitCount histograms — a 1–2.5–5
// ladder over the batch counts and sizes the scheduling endpoint observes.
var countBounds = []float64{
	1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000,
}

// WritePrometheus renders every registered family in the Prometheus text
// exposition format (version 0.0.4): a `# HELP` and `# TYPE` header per
// family followed by its samples. Families appear in registration order.
// Histograms (recorded in nanoseconds) are exposed in seconds with
// cumulative `le` buckets, `_sum`, and `_count`, matching the Prometheus
// histogram convention.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, f := range r.snapshotFamilies() {
		if err := f.writePrometheus(w); err != nil {
			return err
		}
	}
	return nil
}

// writePrometheus renders one family's header and samples.
func (f *family) writePrometheus(w io.Writer) error {
	if f.help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
		return err
	}
	var err error
	switch {
	case f.kind == KindHistogram:
		err = writeHistogram(w, f.name, f.unit, f.hist.Snapshot())
	case f.labelKey != "":
		for _, c := range f.childSnapshot() {
			labels := []Label{{Key: f.labelKey, Value: c.value}}
			if _, err = fmt.Fprintf(w, "%s%s %d\n", f.name, labelString(labels), c.count); err != nil {
				break
			}
		}
	case f.kind == KindCounter:
		_, err = fmt.Fprintf(w, "%s %d\n", f.name, f.counter.Value())
	default:
		_, err = fmt.Fprintf(w, "%s%s %d\n", f.name, labelString(f.labels), f.gauge.Value())
	}
	return err
}

func writeHistogram(w io.Writer, name string, unit HistUnit, s HistogramSnapshot) error {
	// Duration histograms store nanoseconds and expose seconds; count
	// histograms store and expose the raw values.
	bounds, scale := expositionBounds, 1e9
	if unit == UnitCount {
		bounds, scale = countBounds, 1
	}
	for _, bound := range bounds {
		cum := s.CumulativeAtOrBelow(uint64(bound * scale))
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n", name, formatBound(bound), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, s.Count); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum %s\n", name, formatFloat(float64(s.Sum)/scale)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count %d\n", name, s.Count)
	return err
}

// labelString renders a label set as `{k1="v1",k2="v2"}`, or "" when empty.
func labelString(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteByte('"')
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// formatBound renders an `le` boundary without trailing zeros (0.25, 1, 30).
func formatBound(b float64) string {
	return strconv.FormatFloat(b, 'g', -1, 64)
}

// formatFloat renders a sample value in the shortest round-trip form.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes backslashes and newlines per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes backslashes, double quotes, and newlines in a label
// value per the exposition format.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
