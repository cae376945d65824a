// Package harness defines the reproduction experiments: each figure
// panel as data (the campaign points it evaluates and its table
// layout), Table I, Table II and the latency probe as functions of the
// machine, a text/CSV renderer for their results, and the
// paper-expectation checks that EXPERIMENTS.md and the shape tests are
// built from.
package harness

import (
	"fmt"
	"strings"
)

// Cell is one measurement: a value or the reason it is absent (the
// paper prints no bar when a configuration cannot run).
type Cell struct {
	Value       float64
	Unavailable string
}

// Format renders the cell, using "-" for absent measurements as the
// paper's figures do.
func (c Cell) Format(format string) string {
	if c.Unavailable != "" {
		return "-"
	}
	return fmt.Sprintf(format, c.Value)
}

// Row is one x-axis point.
type Row struct {
	X     float64
	Cells []Cell
}

// Table is a rendered experiment: the series of one figure panel or
// the rows of one table.
type Table struct {
	ID     string // "fig2", "table1", ...
	Title  string
	XLabel string
	XFmt   string // format for X values
	ValFmt string // format for cells
	Cols   []string
	Rows   []Row
	Notes  []string
}

// Render produces an aligned text rendering.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s\n", strings.ToUpper(t.ID), t.Title)
	width := 14
	fmt.Fprintf(&b, "%-14s", t.XLabel)
	for _, c := range t.Cols {
		fmt.Fprintf(&b, "%*s", width, c)
	}
	b.WriteString("\n")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-14s", fmt.Sprintf(t.XFmt, r.X))
		for _, c := range r.Cells {
			fmt.Fprintf(&b, "%*s", width, c.Format(t.ValFmt))
		}
		b.WriteString("\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// RenderCSV produces a machine-readable rendering.
func (t *Table) RenderCSV() string {
	var b strings.Builder
	b.WriteString(t.XLabel)
	for _, c := range t.Cols {
		b.WriteString(",")
		b.WriteString(c)
	}
	b.WriteString("\n")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, t.XFmt, r.X)
		for _, c := range r.Cells {
			b.WriteString(",")
			if c.Unavailable == "" {
				fmt.Fprintf(&b, "%g", c.Value)
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Col returns the index of a named column.
func (t *Table) Col(name string) (int, error) {
	for i, c := range t.Cols {
		if c == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("harness: table %s has no column %q", t.ID, name)
}

// CellAt returns the cell for an x value (matched within a relative
// 1e-6, since GiB conversions truncate) and column name.
func (t *Table) CellAt(x float64, col string) (Cell, error) {
	ci, err := t.Col(col)
	if err != nil {
		return Cell{}, err
	}
	for _, r := range t.Rows {
		diff := r.X - x
		if diff < 0 {
			diff = -diff
		}
		if diff <= 1e-6*(1+x) {
			return r.Cells[ci], nil
		}
	}
	return Cell{}, fmt.Errorf("harness: table %s has no row x=%v", t.ID, x)
}

// ValueAt returns the numeric value at (x, col), failing on absent
// cells.
func (t *Table) ValueAt(x float64, col string) (float64, error) {
	c, err := t.CellAt(x, col)
	if err != nil {
		return 0, err
	}
	if c.Unavailable != "" {
		return 0, fmt.Errorf("harness: cell (%v, %s) absent: %s", x, col, c.Unavailable)
	}
	return c.Value, nil
}
