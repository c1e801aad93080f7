package experiments

import (
	"os"
	"path/filepath"
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

// stripWall drops the last tab-separated column of every line: the
// sim_wall_ms column of the scale, rack and fault tables, the one value in
// them that is not a function of the cell's config.
func stripWall(table string) string {
	lines := strings.Split(table, "\n")
	for i, l := range lines {
		if j := strings.LastIndexByte(l, '\t'); j >= 0 {
			lines[i] = l[:j]
		}
	}
	return strings.Join(lines, "\n")
}

// figsTSV is the golden text of a figure set: every sub-figure's TSV.
func figsTSV(figs []*Figure) string {
	var b strings.Builder
	for _, f := range figs {
		b.WriteString(f.TSV())
	}
	return b.String()
}
