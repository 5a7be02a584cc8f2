package lint

// The golden harness: each analyzer runs over its testdata mini-module
// and every diagnostic must line up with a trailing `// want `+"`regex`"
// comment on the same source line — missing and unexpected findings
// both fail, so the goldens pin messages and positions, not just
// counts.

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var wantRe = regexp.MustCompile("// want `([^`]+)`")

// testConfig scopes every rule to the testdata module so the analyzers
// fire inside it exactly as they do inside the real tree.
func testConfig(module string) *Config {
	return &Config{
		DeterministicPkgs: map[string]bool{module: true, module + "/leak": true, module + "/counters": true},
		PerfClocks: map[string]map[string]bool{
			module + ".PerfStamp": {module: true, module + "/counters": true},
		},
		MiddleboxPkgs:   map[string]bool{module: true},
		SupervisorFiles: map[string]bool{"supervisor.go": true},
		ProjectPrefix:   module,
	}
}

// loadTestdata loads testdata/<name> as its own module named <name>.
func loadTestdata(t *testing.T, name string) []*Package {
	t.Helper()
	pkgs, err := Load(filepath.Join("testdata", name), name, "./...")
	if err != nil {
		t.Fatalf("load testdata/%s: %v", name, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("no packages in testdata/%s", name)
	}
	return pkgs
}

// runGolden checks one analyzer's diagnostics against the want comments.
func runGolden(t *testing.T, name string, a *Analyzer) {
	t.Helper()
	pkgs := loadTestdata(t, name)
	diags := Run(testConfig(name), pkgs, []*Analyzer{a})

	type wantKey struct {
		file string
		line int
	}
	wants := map[wantKey][]*regexp.Regexp{}
	matched := map[wantKey][]bool{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("bad want regexp %q: %v", m[1], err)
					}
					pos := pkg.Fset.Position(c.Pos())
					k := wantKey{pos.Filename, pos.Line}
					wants[k] = append(wants[k], re)
					matched[k] = append(matched[k], false)
				}
			}
		}
	}

	for _, d := range diags {
		k := wantKey{d.Pos.Filename, d.Pos.Line}
		found := false
		for i, re := range wants[k] {
			if !matched[k][i] && re.MatchString(d.Message) {
				matched[k][i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for k, res := range wants {
		for i, re := range res {
			if !matched[k][i] {
				t.Errorf("%s:%d: no diagnostic matched want `%s`", shortPath(k.file), k.line, re)
			}
		}
	}
	if t.Failed() {
		var all []string
		for _, d := range diags {
			all = append(all, d.String())
		}
		t.Logf("all diagnostics:\n%s", strings.Join(all, "\n"))
	}
}

func TestNondetGolden(t *testing.T)        { runGolden(t, "nondet", NondetAnalyzer) }
func TestFailPolicyGolden(t *testing.T)    { runGolden(t, "failpolicy", FailPolicyAnalyzer) }
func TestUnlockedFieldGolden(t *testing.T) { runGolden(t, "unlockedfield", UnlockedFieldAnalyzer) }
func TestErrDropGolden(t *testing.T)       { runGolden(t, "errdrop", ErrDropAnalyzer) }
func TestLockOrderGolden(t *testing.T)     { runGolden(t, "lockorder", LockOrderAnalyzer) }

// TestMalformedAllow: a reasonless //lint:allow, and one naming a
// check no analyzer runs, suppress nothing and are themselves reported;
// the comment-above form with a reason suppresses.
func TestMalformedAllow(t *testing.T) {
	pkgs := loadTestdata(t, "allowcheck")
	diags := Run(testConfig("allowcheck"), pkgs, []*Analyzer{NondetAnalyzer})
	var reasonless, nondet int
	stale := map[string]bool{}
	for _, d := range diags {
		switch {
		case d.Check == "nondet":
			nondet++
		case d.Check == "lint" && strings.Contains(d.Message, "no reason"):
			reasonless++
		case d.Check == "lint" && strings.Contains(d.Message, "names no registered check"):
			stale[strings.Fields(d.Message)[1]] = true
		default:
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	if reasonless != 1 || nondet != 2 || !stale["goleak"] || !stale["clockparam"] || !stale["trustflow"] || len(stale) != 3 {
		var all []string
		for _, d := range diags {
			all = append(all, d.String())
		}
		t.Fatalf("want 1 reasonless allow, stale allows for goleak, clockparam and trustflow, and 2 nondet findings; got %d, %v, %d:\n%s",
			reasonless, stale, nondet, strings.Join(all, "\n"))
	}
}

// TestCollectAllows: the audit list sees well-formed annotations with
// their reasons and skips malformed ones.
func TestCollectAllows(t *testing.T) {
	pkgs := loadTestdata(t, "allowcheck")
	allows := CollectAllows(pkgs)
	if len(allows) != 1 {
		t.Fatalf("want 1 allow, got %d: %v", len(allows), allows)
	}
	if allows[0].Check != "nondet" || !strings.Contains(allows[0].Reason, "comment-above") {
		t.Fatalf("allow = %+v", allows[0])
	}
}

// TestDiagnosticOrder: Run returns findings position-sorted so output
// and golden comparisons are stable.
func TestDiagnosticOrder(t *testing.T) {
	pkgs := loadTestdata(t, "nondet")
	diags := Run(testConfig("nondet"), pkgs, []*Analyzer{NondetAnalyzer})
	if len(diags) < 2 {
		t.Fatalf("want several diagnostics, got %d", len(diags))
	}
	for i := 1; i < len(diags); i++ {
		a, b := diags[i-1], diags[i]
		if a.Pos.Filename > b.Pos.Filename ||
			(a.Pos.Filename == b.Pos.Filename && a.Pos.Line > b.Pos.Line) {
			t.Fatalf("unsorted: %s before %s", a, b)
		}
	}
	// And the String form is the file:line:col: [check] message shape
	// the driver prints.
	if want := fmt.Sprintf("[%s]", "nondet"); !strings.Contains(diags[0].String(), want) {
		t.Fatalf("diagnostic string %q missing %q", diags[0].String(), want)
	}
}
