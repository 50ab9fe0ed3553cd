// Package experiments regenerates every table and figure in the paper's
// evaluation (Tables I–XIII, Figures 1–8). Each experiment produces a
// typed result whose Render method prints the measured rows next to the
// paper's reported values, so divergence is visible at a glance. The
// cmd/paperrepro binary and the repository-root benchmarks drive this
// package.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"gftpvc/internal/stats"
)

// Result is one regenerated exhibit.
type Result interface {
	// ID is the exhibit identifier ("table4", "fig3", ...).
	ID() string
	// Render returns the human-readable table/series.
	Render() string
}

// Runner regenerates one exhibit with the given seed.
type Runner func(seed int64) (Result, error)

// registry maps exhibit IDs to runners, populated by init functions in
// this package.
var registry = map[string]Runner{}

func register(id string, r Runner) {
	if _, dup := registry[id]; dup {
		panic("experiments: duplicate exhibit " + id)
	}
	registry[id] = r
}

// IDs returns all registered exhibit IDs in order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Run regenerates one exhibit.
func Run(id string, seed int64) (Result, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown exhibit %q (have %v)", id, IDs())
	}
	return r(seed)
}

// summaryRow renders one Min/Q1/Median/Mean/Q3/Max row.
func summaryRow(label string, s stats.Summary) string {
	return fmt.Sprintf("%-28s %12.4g %12.4g %12.4g %12.4g %12.4g %12.4g",
		label, s.Min, s.Q1, s.Median, s.Mean, s.Q3, s.Max)
}

// summaryHeader is the column header matching summaryRow.
func summaryHeader() string {
	return fmt.Sprintf("%-28s %12s %12s %12s %12s %12s %12s",
		"", "Min", "1st Qu.", "Median", "Mean", "3rd Qu.", "Max")
}

// summaryBlock renders measured-vs-paper rows for one quantity.
func summaryBlock(name string, measured, paper stats.Summary) string {
	var b strings.Builder
	fmt.Fprintln(&b, name)
	fmt.Fprintln(&b, summaryHeader())
	fmt.Fprintln(&b, summaryRow("  measured", measured))
	fmt.Fprintln(&b, summaryRow("  paper", paper))
	return b.String()
}

// textResult is a pre-rendered result.
type textResult struct {
	id   string
	text string
}

func (t textResult) ID() string     { return t.id }
func (t textResult) Render() string { return t.text }

// valued is a pre-rendered result that also carries the numbers it was
// rendered from, so a shape test checks exactly what paperrepro prints.
type valued[V any] struct {
	textResult
	values V
}
