package experiments

import (
	"fmt"
	"math"
	"strings"
)

// TSV renders the figure's series as a tab-separated table: one x column
// followed by one column per series (aligned by x where the series share a
// grid, padded otherwise).
func (f *Figure) TSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s: %s\n", f.ID, f.Title)
	for _, n := range f.Notes {
		fmt.Fprintf(&b, "# %s\n", n)
	}
	b.WriteString(f.XLabel)
	for _, s := range f.Series {
		b.WriteByte('\t')
		b.WriteString(s.Name)
	}
	b.WriteByte('\n')
	n := 0
	for _, s := range f.Series {
		if len(s.X) > n {
			n = len(s.X)
		}
	}
	for i := 0; i < n; i++ {
		var x float64
		for _, s := range f.Series {
			if i < len(s.X) {
				x = s.X[i]
				break
			}
		}
		fmt.Fprintf(&b, "%g", x)
		for _, s := range f.Series {
			if i < len(s.Y) {
				fmt.Fprintf(&b, "\t%.3f", s.Y[i])
			} else {
				b.WriteString("\t-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ASCII renders the figure as a rough terminal plot: one mark per series.
// Width and height are in character cells (minimums are enforced).
func (f *Figure) ASCII(width, height int) string {
	if width < 40 {
		width = 40
	}
	if height < 8 {
		height = 8
	}
	marks := []byte{'o', '+', 'x', '*', '#', '@'}

	xmin, xmax := math.Inf(1), math.Inf(-1)
	ymin, ymax := 0.0, math.Inf(-1) // y axis anchored at zero, like the paper
	for _, s := range f.Series {
		for i := range s.X {
			xmin = math.Min(xmin, s.X[i])
			xmax = math.Max(xmax, s.X[i])
			ymax = math.Max(ymax, s.Y[i])
		}
	}
	if math.IsInf(xmin, 1) || ymax <= ymin {
		return fmt.Sprintf("%s: (no data)\n", f.ID)
	}
	if xmax == xmin {
		xmax = xmin + 1
	}

	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range f.Series {
		mark := marks[si%len(marks)]
		for i := range s.X {
			col := int(math.Round((s.X[i] - xmin) / (xmax - xmin) * float64(width-1)))
			row := int(math.Round((s.Y[i] - ymin) / (ymax - ymin) * float64(height-1)))
			r := height - 1 - row
			if r >= 0 && r < height && col >= 0 && col < width {
				grid[r][col] = mark
			}
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s\n", f.ID, f.Title)
	for r, row := range grid {
		yval := ymax - float64(r)/float64(height-1)*(ymax-ymin)
		fmt.Fprintf(&b, "%9.1f |%s|\n", yval, string(row))
	}
	fmt.Fprintf(&b, "%9s  %s\n", "", strings.Repeat("-", width))
	fmt.Fprintf(&b, "%9s  %-*g%*g\n", "", width/2, xmin, width-width/2, xmax)
	fmt.Fprintf(&b, "%9s  x: %s, y: %s\n", "", f.XLabel, f.YLabel)
	legend := make([]string, 0, len(f.Series))
	for si, s := range f.Series {
		legend = append(legend, fmt.Sprintf("%c=%s", marks[si%len(marks)], s.Name))
	}
	fmt.Fprintf(&b, "%9s  legend: %s\n", "", strings.Join(legend, "  "))
	for _, n := range f.Notes {
		fmt.Fprintf(&b, "%9s  note: %s\n", "", n)
	}
	return b.String()
}

// column is one column of a table over rows of type R: its header, the
// fmt verb its cells print with, and a row's value.
type column[R any] struct {
	name, verb string
	val        func(R) any
}

// tsv renders rows as a tab-separated table: a header line of column names,
// then one line per row.
func tsv[R any](cols []column[R], rows []R) string {
	var b strings.Builder
	for i, c := range cols {
		if i > 0 {
			b.WriteByte('\t')
		}
		b.WriteString(c.name)
	}
	b.WriteByte('\n')
	for _, r := range rows {
		for i, c := range cols {
			if i > 0 {
				b.WriteByte('\t')
			}
			fmt.Fprintf(&b, c.verb, c.val(r))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// markdown renders a TSV table as a markdown table, dropping its # comment
// lines.
func markdown(table string) string {
	var b strings.Builder
	rows := 0
	for _, line := range strings.Split(strings.TrimRight(table, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		cells := strings.Split(line, "\t")
		b.WriteString("| " + strings.Join(cells, " | ") + " |\n")
		if rows == 0 {
			b.WriteString("|" + strings.Repeat(" --- |", len(cells)) + "\n")
		}
		rows++
	}
	return b.String()
}
