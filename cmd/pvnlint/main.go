// Command pvnlint runs the project's five contract analyzers over the
// module: determinism and clock discipline (nondet), fail-closed
// security middleboxes (failpolicy), atomic/plain mixed field access
// (unlockedfield), dropped lifecycle errors (errdrop) and lock ordering
// (lockorder). It is
// stdlib-only and offline: packages are parsed and type-checked from
// source, so it needs no module downloads, build cache or cgo.
//
// Usage:
//
//	pvnlint ./...                 # whole module (the make lint default)
//	pvnlint ./internal/...        # a subtree
//	pvnlint -checks nondet ./...  # a subset of analyzers
//	pvnlint -json ./...           # findings as a JSON array (CI artifact)
//	pvnlint -list                 # list analyzers and exit
//	pvnlint -allows ./...         # print every //lint:allow suppression
//
// Findings print as file:line:col: [check] message, or with -json as a
// JSON array of {file,line,col,check,message} objects (an empty array
// when clean). Exit status: 0 clean, 1 findings, 2 usage or load
// failure. Deliberate exceptions are annotated in source as
// `//lint:allow <check> <reason>` on the offending line or the line
// above it; the reason is mandatory, and the check must be one -list
// prints.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"pvn/internal/lint"
)

func main() {
	fs := flag.NewFlagSet("pvnlint", flag.ExitOnError)
	list := fs.Bool("list", false, "list analyzers and exit")
	allows := fs.Bool("allows", false, "print every //lint:allow annotation (file:line check reason) instead of linting")
	checks := fs.String("checks", "", "comma-separated analyzer names to run (default: all)")
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array (exit status unchanged)")
	fs.Parse(os.Args[1:])

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *checks != "" {
		want := map[string]bool{}
		for _, c := range strings.Split(*checks, ",") {
			want[strings.TrimSpace(c)] = true
		}
		var sel []*lint.Analyzer
		for _, a := range analyzers {
			if want[a.Name] {
				sel = append(sel, a)
				delete(want, a.Name)
			}
		}
		for unknown := range want {
			fmt.Fprintf(os.Stderr, "pvnlint: unknown check %q (see -list)\n", unknown)
			os.Exit(2)
		}
		analyzers = sel
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fail(err)
	}
	root, module, err := lint.FindModuleRoot(cwd)
	if err != nil {
		fail(err)
	}
	// Patterns are cwd-relative; translate to module-root-relative.
	rel, err := filepath.Rel(root, cwd)
	if err != nil {
		fail(err)
	}
	for i, p := range patterns {
		patterns[i] = filepath.ToSlash(filepath.Join(rel, p))
	}

	pkgs, err := lint.Load(root, module, patterns...)
	if err != nil {
		fail(err)
	}

	if *allows {
		for _, a := range lint.CollectAllows(pkgs) {
			fmt.Printf("%s:%d: %-14s %s\n", relTo(cwd, a.Pos.Filename), a.Pos.Line, a.Check, a.Reason)
		}
		return
	}

	diags := lint.Run(lint.DefaultConfig(), pkgs, analyzers)
	if *jsonOut {
		type finding struct {
			File    string `json:"file"`
			Line    int    `json:"line"`
			Col     int    `json:"col"`
			Check   string `json:"check"`
			Message string `json:"message"`
		}
		out := make([]finding, 0, len(diags))
		for _, d := range diags {
			out = append(out, finding{relTo(cwd, d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Check, d.Message})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fail(err)
		}
	} else {
		for _, d := range diags {
			fmt.Printf("%s:%d:%d: [%s] %s\n", relTo(cwd, d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Check, d.Message)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "pvnlint: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		os.Exit(1)
	}
}

func relTo(cwd, path string) string {
	if r, err := filepath.Rel(cwd, path); err == nil && !strings.HasPrefix(r, "..") {
		return r
	}
	return path
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "pvnlint:", err)
	os.Exit(2)
}
