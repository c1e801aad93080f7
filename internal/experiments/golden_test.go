package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// checkGolden compares text a test already computed against
// testdata/<name>.golden. The shape and finding assertions around it never
// look at absolute values, so this is what catches a cell wired to the
// wrong bandwidth, strategy or seed. On a mismatch (or a missing golden) the
// got-text is written beside the golden as <name>.golden.got: diff the two,
// and move it over the golden only when the numbers were meant to change.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	want, err := os.ReadFile(path)
	if err == nil && string(want) == got {
		return
	}
	if werr := os.WriteFile(path+".got", []byte(got), 0o644); werr != nil {
		t.Errorf("writing got-text: %v", werr)
	}
	if err != nil {
		t.Errorf("golden %s: %v (got-text written to %s.got)", name, err, path)
		return
	}
	wantLines, gotLines := strings.Split(string(want), "\n"), strings.Split(got, "\n")
	for i := 0; i < max(len(wantLines), len(gotLines)); i++ {
		var w, g string
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if w != g {
			t.Errorf("golden %s differs at line %d (got-text written to %s.got):\n got %q\nwant %q", name, i+1, path, g, w)
			return
		}
	}
}

// stripWall renders the table without its sim_wall_ms column, the one
// value in it that is not a function of the cell's config.
func stripWall(t *testing.T, tb *Table) string {
	t.Helper()
	cols := slices.DeleteFunc(slices.Clone(tb.cols), func(c column[Row]) bool { return c.name == "sim_wall_ms" })
	if len(cols) != len(tb.cols)-1 {
		t.Fatalf("table has no sim_wall_ms column to strip")
	}
	return tsv(cols, tb.Rows)
}

// float is row r's value in the named column of tb: how tests read the
// columns derived after the run (retained_pct, ttc_speedup_vs_fifo).
func float(t *testing.T, tb *Table, r Row, name string) float64 {
	t.Helper()
	for _, c := range tb.cols {
		if c.name == name {
			return c.val(r).(float64)
		}
	}
	t.Fatalf("table has no column %q", name)
	return 0
}

// figsTSV is the golden text of a figure set: every sub-figure's TSV.
func figsTSV(figs []*Figure) string {
	var b strings.Builder
	for _, f := range figs {
		b.WriteString(f.TSV())
	}
	return b.String()
}

// byID is the entry of All with the given ID.
func byID(t *testing.T, id string) Experiment {
	t.Helper()
	i := slices.IndexFunc(All, func(e Experiment) bool { return e.ID == id })
	if i < 0 {
		t.Fatalf("no experiment %q in All", id)
	}
	return All[i]
}

// checkSection renders output a test already computed as the experiment's
// report section and checks it: the section heading, a body under the
// heading and paragraph, every fragment given, and no pointer to a
// DESIGN.md the repository never had. table is the TSV of a Table entry;
// figs the figures of a Figures entry.
func checkSection(t *testing.T, id string, figs []*Figure, table string, frags ...string) {
	t.Helper()
	e := byID(t, id)
	sec := e.section(figs, table)
	head := fmt.Sprintf("## %s\n\n", e.Title)
	if e.About != "" {
		head += e.About + "\n\n"
	}
	if !strings.HasPrefix(sec, head) || strings.TrimSpace(sec[len(head):]) == "" {
		t.Errorf("%s: section has no body under its heading:\n%s", id, sec)
	}
	for _, frag := range frags {
		if !strings.Contains(sec, frag) {
			t.Errorf("%s: section missing %q:\n%s", id, frag, sec)
		}
	}
	if strings.Contains(sec, "DESIGN.md") {
		t.Errorf("%s: section cites DESIGN.md, which does not exist", id)
	}
}
