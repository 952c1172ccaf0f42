package stats

import (
	"fmt"
	"strings"
)

// Table accumulates rows and renders them as an aligned plain-text table,
// the output format of the experiment harness (one table or series per
// reproduced paper table/figure).
type Table struct {
	Title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, headers: headers}
}

// AddRow appends a row; cells are rendered with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		case float32:
			row[i] = formatFloat(float64(v))
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

func formatFloat(v float64) string {
	if v == float64(int64(v)) && v < 1e15 && v > -1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.3f", v)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	cols := len(t.headers)
	for _, r := range t.rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	widths := make([]int, cols)
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
		b.WriteString(strings.Repeat("=", len(t.Title)))
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i := 0; i < cols; i++ {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	if len(t.headers) > 0 {
		writeRow(t.headers)
		sep := make([]string, cols)
		for i := range sep {
			sep[i] = strings.Repeat("-", widths[i])
		}
		writeRow(sep)
	}
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// Series renders a labeled numeric series with an ASCII sparkline — the
// textual stand-in for a paper figure panel.
type Series struct {
	Label  string
	XLabel []string
	Y      []float64
}

// String renders the series as "label: x=y ..." lines plus a sparkline.
func (s Series) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s  %s\n", s.Label, Sparkline(s.Y))
	for i, y := range s.Y {
		x := fmt.Sprintf("%d", i)
		if i < len(s.XLabel) {
			x = s.XLabel[i]
		}
		fmt.Fprintf(&b, "  %-12s %s\n", x, formatFloat(y))
	}
	return b.String()
}

var sparkChars = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders ys as a unicode sparkline scaled to [min, max].
func Sparkline(ys []float64) string {
	if len(ys) == 0 {
		return ""
	}
	min, max := ys[0], ys[0]
	for _, y := range ys {
		if y < min {
			min = y
		}
		if y > max {
			max = y
		}
	}
	var b strings.Builder
	for _, y := range ys {
		i := 0
		if max > min {
			i = int((y - min) / (max - min) * float64(len(sparkChars)-1))
		}
		b.WriteRune(sparkChars[i])
	}
	return b.String()
}
