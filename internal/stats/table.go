package stats

import (
	"fmt"
	"io"
	"strings"
	"unicode/utf8"
)

// Table renders experiment results as aligned plain text, the way the
// experiment binary reports each reproduced figure. Rows are added as
// formatted cells; Render pads every column to its widest cell.
type Table struct {
	Title   string
	Columns []string
	rows    [][]string
	notes   []string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; cells are stringified with %v, floats with %.4g.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		case float32:
			row[i] = fmt.Sprintf("%.4g", v)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.rows = append(t.rows, row)
}

// AddNote appends a free-text footnote rendered under the table.
func (t *Table) AddNote(format string, args ...interface{}) {
	t.notes = append(t.notes, fmt.Sprintf(format, args...))
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = utf8.RuneCountInString(c)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if w := utf8.RuneCountInString(cell); i < len(widths) && w > widths[i] {
				widths[i] = w
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "## %s\n", t.Title)
	}
	var header strings.Builder
	for i, c := range t.Columns {
		if i > 0 {
			header.WriteString("  ")
		}
		header.WriteString(pad(c, widths[i]))
	}
	fmt.Fprintln(w, header.String())
	fmt.Fprintln(w, strings.Repeat("-", len(header.String())))
	for _, row := range t.rows {
		var line strings.Builder
		for i, cell := range row {
			if i > 0 {
				line.WriteString("  ")
			}
			width := utf8.RuneCountInString(cell)
			if i < len(widths) {
				width = widths[i]
			}
			line.WriteString(pad(cell, width))
		}
		fmt.Fprintln(w, line.String())
	}
	for _, n := range t.notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func pad(s string, width int) string {
	n := utf8.RuneCountInString(s)
	if n >= width {
		return s
	}
	return s + strings.Repeat(" ", width-n)
}
