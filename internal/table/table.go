// Package table renders aligned ASCII tables for the CLI experiment output —
// the textual equivalent of the paper's figures.
package table

import (
	"fmt"
	"io"
	"strings"
	"unicode/utf8"
)

// Table accumulates rows and renders them with aligned columns.
type Table struct {
	header []string
	rows   [][]string
}

// New returns a table with the given column headers.
func New(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row of already-formatted cells. Short rows are padded
// with empty cells; long rows extend the column count.
func (t *Table) AddRow(cells ...string) {
	t.rows = append(t.rows, cells)
}

// AddRowf appends a row formatting each value with %v, using %.4g for
// floats.
func (t *Table) AddRowf(values ...interface{}) {
	cells := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case float64:
			cells[i] = fmt.Sprintf("%.4g", x)
		case float32:
			cells[i] = fmt.Sprintf("%.4g", x)
		default:
			cells[i] = fmt.Sprintf("%v", v)
		}
	}
	t.AddRow(cells...)
}

// Render writes the aligned table to w.
func (t *Table) Render(w io.Writer) error {
	cols := len(t.header)
	for _, r := range t.rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	widths := make([]int, cols)
	measure := func(row []string) {
		for i, c := range row {
			if n := utf8.RuneCountInString(c); n > widths[i] {
				widths[i] = n
			}
		}
	}
	measure(t.header)
	for _, r := range t.rows {
		measure(r)
	}
	writeRow := func(row []string) error {
		var sb strings.Builder
		for i := 0; i < cols; i++ {
			cell := ""
			if i < len(row) {
				cell = row[i]
			}
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(cell)
			sb.WriteString(strings.Repeat(" ", widths[i]-utf8.RuneCountInString(cell)))
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(sb.String(), " "))
		return err
	}
	if len(t.header) > 0 {
		if err := writeRow(t.header); err != nil {
			return err
		}
		var sb strings.Builder
		for i := 0; i < cols; i++ {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(strings.Repeat("-", widths[i]))
		}
		if _, err := fmt.Fprintln(w, sb.String()); err != nil {
			return err
		}
	}
	for _, r := range t.rows {
		if err := writeRow(r); err != nil {
			return err
		}
	}
	return nil
}

// String renders the table to a string.
func (t *Table) String() string {
	var sb strings.Builder
	_ = t.Render(&sb)
	return sb.String()
}
