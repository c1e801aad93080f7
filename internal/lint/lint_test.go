package lint

import (
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// runFixture loads one testdata package (excluded from ./... by the
// testdata rule, buildable when named explicitly), runs the analyzers over
// it, and checks the findings against the fixture's `// want` comments:
// every diagnostic must match a backtick-quoted regex on its line, and
// every want must be matched by exactly one diagnostic.
func runFixture(t *testing.T, pattern string, analyzers ...*Analyzer) {
	t.Helper()
	pkgs, err := Load(".", []string{pattern})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages for %s, want 1", len(pkgs), pattern)
	}
	pkg := pkgs[0]
	diags, err := RunAnalyzers(pkg, analyzers)
	if err != nil {
		t.Fatal(err)
	}

	type want struct {
		re      *regexp.Regexp
		matched bool
	}
	wants := make(map[string]map[int][]*want) // file -> line -> wants
	for _, path := range pkg.GoFiles {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		wants[path] = make(map[int][]*want)
		for i, line := range strings.Split(string(src), "\n") {
			_, spec, ok := strings.Cut(line, "// want ")
			if !ok {
				continue
			}
			for _, quoted := range regexp.MustCompile("`[^`]*`").FindAllString(spec, -1) {
				re, err := regexp.Compile(quoted[1 : len(quoted)-1])
				if err != nil {
					t.Fatalf("%s:%d: bad want regex: %v", path, i+1, err)
				}
				wants[path][i+1] = append(wants[path][i+1], &want{re: re})
			}
		}
	}

	for _, d := range diags {
		ws := wants[d.Pos.Filename][d.Pos.Line]
		found := false
		for _, w := range ws {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for file, byLine := range wants {
		for line, ws := range byLine {
			for _, w := range ws {
				if !w.matched {
					t.Errorf("%s:%d: want %q: no diagnostic matched", file, line, w.re)
				}
			}
		}
	}
}

func TestWallclockFixture(t *testing.T) {
	runFixture(t, "./testdata/src/wallclock", Wallclock(CriticalPackages))
}

func TestWallclockCriticalFixture(t *testing.T) {
	// The fixture's own import path is the critical list, so the fixture
	// exercises the no-exceptions branch without touching a real critical
	// package.
	runFixture(t, "./testdata/src/wallclockcrit",
		Wallclock([]string{"p3/internal/lint/testdata/src/wallclockcrit"}))
}

// TestCriticalPackagesExist: wallclock matches CriticalPackages by import
// path, so an entry whose package moved or was renamed would stop being
// checked without any failure. Every entry must still name Go files.
func TestCriticalPackagesExist(t *testing.T) {
	for _, p := range CriticalPackages {
		dir := filepath.Join("..", "..", strings.TrimPrefix(p, "p3/"))
		if files, _ := filepath.Glob(filepath.Join(dir, "*.go")); len(files) == 0 {
			t.Errorf("CriticalPackages lists %s, but %s holds no Go files", p, dir)
		}
	}
}

func TestMapOrderFixture(t *testing.T) {
	// The fixture declares its own Engine.At sink; configuring it here
	// exercises exactly the matching path DefaultSinks uses for sim.
	runFixture(t, "./testdata/src/maporder",
		MapOrder([]Sink{{Pkg: "p3/internal/lint/testdata/src/maporder", Recv: "Engine", Name: "At"}}))
}

func TestSizeBudgetFixture(t *testing.T) {
	if runtime.GOARCH != "amd64" && runtime.GOARCH != "arm64" {
		t.Skipf("budgets are stated for 64-bit targets; GOARCH=%s", runtime.GOARCH)
	}
	runFixture(t, "./testdata/src/sizebudget", SizeBudget())
}

// TestSizeBudgetRealStructs pins the live annotations: sim's event struct
// (32), sim.Engine (128), sim's pshard (256), sched.Item (24) and netsim's
// flight (96) carry //p3:sizebudget, and the analyzer must agree silently. If this test
// fails, a field was added to a budgeted hot struct — see
// internal/lint/doc.go for the measured cliffs before changing the budget.
func TestSizeBudgetRealStructs(t *testing.T) {
	if runtime.GOARCH != "amd64" && runtime.GOARCH != "arm64" {
		t.Skipf("budgets are stated for 64-bit targets; GOARCH=%s", runtime.GOARCH)
	}
	pkgs, err := Load(".", []string{"p3/internal/sim", "p3/internal/sched", "p3/internal/netsim"})
	if err != nil {
		t.Fatal(err)
	}
	budgeted := 0
	for _, pkg := range pkgs {
		diags, err := RunAnalyzers(pkg, []*Analyzer{SizeBudget()})
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			t.Errorf("unexpected diagnostic: %s", d)
		}
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if d, ok := ParseDirective(c.Text, pkg.Fset.Position(c.Pos())); ok && d.Name == "sizebudget" {
						budgeted++
					}
				}
			}
		}
	}
	if budgeted != 5 {
		t.Errorf("found %d //p3:sizebudget directives in sim+sched+netsim, want 5 (event, Engine, pshard, Item and flight)", budgeted)
	}
}

func TestNoEscapeFixture(t *testing.T) {
	diags, err := NoEscape(".", []string{"./testdata/src/noescape"})
	if err != nil {
		t.Fatal(err)
	}
	var leaks, others []string
	for _, d := range diags {
		if strings.Contains(d.Message, "function leak") {
			leaks = append(leaks, d.String())
		} else {
			others = append(others, d.String())
		}
	}
	if len(leaks) == 0 {
		t.Errorf("leak's new(int) escape was not reported")
	}
	if len(others) > 0 {
		t.Errorf("diagnostics outside leak (clean, exempted and unmarked must pass):\n%s", strings.Join(others, "\n"))
	}
}

func TestParseDirective(t *testing.T) {
	cases := []struct {
		text      string
		ok        bool
		name, arg string
	}{
		{"//p3:wallclock-ok measuring real throughput", true, "wallclock-ok", "measuring real throughput"},
		{"//p3:sizebudget 32", true, "sizebudget", "32"},
		{"//p3:noescape", true, "noescape", ""},
		{"// p3:wallclock-ok spaced out", false, "", ""},
		{"//p3: empty name", false, "", ""},
		{"// plain comment", false, "", ""},
	}
	for _, c := range cases {
		d, ok := ParseDirective(c.text, token.Position{})
		if ok != c.ok || d.Name != c.name || d.Arg != c.arg {
			t.Errorf("ParseDirective(%q) = {%q %q} %v, want {%q %q} %v", c.text, d.Name, d.Arg, ok, c.name, c.arg, c.ok)
		}
	}
}

func TestParseSink(t *testing.T) {
	s, err := ParseSink("p3/internal/sim.(Engine).At")
	if err != nil || s != (Sink{Pkg: "p3/internal/sim", Recv: "Engine", Name: "At"}) {
		t.Errorf("ParseSink method form: %+v, %v", s, err)
	}
	s, err = ParseSink("p3/internal/sim.Run")
	if err != nil || s != (Sink{Pkg: "p3/internal/sim", Name: "Run"}) {
		t.Errorf("ParseSink func form: %+v, %v", s, err)
	}
	if _, err := ParseSink("garbage"); err == nil {
		t.Error("ParseSink(garbage): want error")
	}
	if got := (Sink{Pkg: "p", Recv: "R", Name: "M"}).String(); got != "p.(R).M" {
		t.Errorf("Sink.String() = %q", got)
	}
}
