package obs

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"time"
)

// WriteReport renders the registry as a human-readable run report: one
// line per series, grouped by subsystem (the first two underscore
// tokens of the metric name), histograms summarized as count, total,
// and mean. CLIs print this after a run when -stats is set.
func (r *Registry) WriteReport(w io.Writer) error {
	bw := bufio.NewWriter(w)
	prevGroup := ""
	for _, f := range r.snapshotFamilies() {
		children := f.snapshotChildren()
		if len(children) == 0 {
			continue
		}
		if g := subsystemOf(f.name); g != prevGroup {
			if prevGroup != "" {
				bw.WriteByte('\n')
			}
			fmt.Fprintf(bw, "== %s ==\n", g)
			prevGroup = g
		}
		for _, c := range children {
			series := f.name + labelSuffix(f.labels, c.values)
			switch m := c.metric.(type) {
			case *Counter:
				fmt.Fprintf(bw, "  %-64s %d\n", series, m.Value())
			case *Gauge:
				fmt.Fprintf(bw, "  %-64s %s\n", series, formatFloat(m.Value()))
			case *Histogram:
				_, count, sum := m.snapshot()
				if count == 0 {
					fmt.Fprintf(bw, "  %-64s count=0\n", series)
					continue
				}
				mean := sum / float64(count)
				if strings.HasSuffix(f.name, "_seconds") {
					fmt.Fprintf(bw, "  %-64s count=%d total=%s mean=%s\n",
						series, count, formatSeconds(sum), formatSeconds(mean))
				} else {
					fmt.Fprintf(bw, "  %-64s count=%d total=%s mean=%s\n",
						series, count, formatFloat(sum), formatFloat(mean))
				}
			}
		}
	}
	return bw.Flush()
}

// subsystemOf extracts the grouping key: "asrank_pool_steals_total" →
// "asrank_pool".
func subsystemOf(name string) string {
	parts := strings.SplitN(name, "_", 3)
	if len(parts) < 3 {
		return name
	}
	return parts[0] + "_" + parts[1]
}

func labelSuffix(labels, values []string) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l)
		b.WriteString(`="`)
		b.WriteString(values[i])
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func formatSeconds(s float64) string {
	d := time.Duration(s * float64(time.Second))
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(time.Microsecond).String()
	}
	return d.String()
}
