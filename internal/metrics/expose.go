package metrics

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"
)

// WritePrometheus renders every gathered family in the Prometheus text
// exposition format (version 0.0.4): # HELP / # TYPE headers, one line
// per sample, histograms expanded into cumulative _bucket{le=...}
// series plus _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, f := range r.Gather() {
		if f.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.Name, escapeHelp(f.Help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.Name, f.Kind); err != nil {
			return err
		}
		for _, s := range f.Samples {
			if s.Hist != nil {
				if err := writeHist(w, f.Name, s.Labels, s.Hist); err != nil {
					return err
				}
				continue
			}
			if _, err := fmt.Fprintf(w, "%s%s %s\n", f.Name, formatLabels(s.Labels), formatValue(s.Value)); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeHist(w io.Writer, name string, labels Labels, h *HistSnapshot) error {
	cum := uint64(0)
	for i, bound := range h.Bounds {
		cum += h.Counts[i]
		ls := append(append(Labels{}, labels...), Label{Name: "le", Value: formatValue(bound)})
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, formatLabels(ls), cum); err != nil {
			return err
		}
	}
	ls := append(append(Labels{}, labels...), Label{Name: "le", Value: "+Inf"})
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, formatLabels(ls), h.Count); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, formatLabels(labels), formatValue(h.Sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, formatLabels(labels), h.Count)
	return err
}

func formatLabels(ls Labels) string {
	if len(ls) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return strconv.FormatInt(int64(v), 10)
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}

// WriteSummary renders the registry as a compact human-readable block —
// the one shared SIGINT / periodic stats-dump renderer behind
// capnn-serve and capnn-gateway. Counters and gauges print one
// `name{labels}=value` per line grouped by family; histograms print
// count, mean, and p50/p95/p99. Families whose metric name ends in a
// latency/_ns suffix render durations.
func (r *Registry) WriteSummary(w io.Writer) error {
	for _, f := range r.Gather() {
		if len(f.Samples) == 0 {
			continue
		}
		if f.Kind == KindHistogram {
			for _, s := range f.Samples {
				if s.Hist == nil {
					continue
				}
				h := s.Hist
				if err := writeSummaryHist(w, f.Name, s.Labels, h); err != nil {
					return err
				}
			}
			continue
		}
		var parts []string
		for _, s := range f.Samples {
			parts = append(parts, fmt.Sprintf("%s=%s", formatLabelsShort(s.Labels), formatValue(s.Value)))
		}
		if _, err := fmt.Fprintf(w, "%s: %s\n", f.Name, strings.Join(parts, " ")); err != nil {
			return err
		}
	}
	return nil
}

func writeSummaryHist(w io.Writer, name string, labels Labels, h *HistSnapshot) error {
	mean := 0.0
	if h.Count > 0 {
		mean = h.Sum / float64(h.Count)
	}
	fmtv := formatValue
	if isNanosHist(name) {
		fmtv = func(v float64) string { return time.Duration(v).Round(time.Microsecond).String() }
	}
	_, err := fmt.Fprintf(w, "%s%s: count=%d mean=%s p50=%s p95=%s p99=%s\n",
		name, formatLabels(labels), h.Count, fmtv(mean),
		fmtv(h.Quantile(0.50)), fmtv(h.Quantile(0.95)), fmtv(h.Quantile(0.99)))
	return err
}

// DumpSummary is the one stats-dump renderer shared by capnn-serve and
// capnn-gateway (their SIGINT final dump): a "<prog>: <when> stats:"
// banner followed by the registry summary, every line prefixed with the
// program name so interleaved multi-process logs stay attributable.
func DumpSummary(w io.Writer, prog, when string, reg *Registry) {
	var b strings.Builder
	_ = reg.WriteSummary(&b)
	fmt.Fprintf(w, "%s: %s stats:\n", prog, when)
	for _, line := range strings.Split(strings.TrimRight(b.String(), "\n"), "\n") {
		fmt.Fprintf(w, "%s:   %s\n", prog, line)
	}
}

// isNanosHist reports whether a histogram's observations are
// nanoseconds (by the repo's `_ns` unit-suffix convention) so the
// summary prints durations instead of raw floats.
func isNanosHist(name string) bool {
	return strings.HasSuffix(name, "_ns")
}

// formatLabelsShort renders {a="x",b="y"} as "x/y" for the summary
// (the family line already names the label meaning via HELP), or
// "value" alone when there are no labels.
func formatLabelsShort(ls Labels) string {
	if len(ls) == 0 {
		return "value"
	}
	parts := make([]string, len(ls))
	for i, l := range ls {
		parts[i] = l.Value
	}
	return strings.Join(parts, "/")
}
