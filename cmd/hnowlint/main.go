// Command hnowlint runs the repository's invariant analyzers
// (internal/lint) over the module: modelbound, pairing, expvarname, and
// the source half of noalloc on every invocation. With -escape it also
// runs the compiler-backed half: one -gcflags='-m -d=ssa/check_bce'
// rebuild of the //hnow:noalloc packages, whose heap allocations and
// bounds checks inside annotated functions are diffed against
// .github/noalloc_allowlist.txt (CI runs it this way). Exit status 1
// means at least one finding, printed one per line as file:line:col:
// analyzer: message.
//
// Usage:
//
//	go run ./cmd/hnowlint ./...                   # source analyzers
//	go run ./cmd/hnowlint -escape ./...           # + noalloc allowlist diff
//	go run ./cmd/hnowlint -write-allowlist ./...  # regenerate the allowlist
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/lint"
)

func main() {
	var (
		dir        = flag.String("C", ".", "module directory to analyze in")
		escape     = flag.Bool("escape", false, "also run the //hnow:noalloc compiler check (rebuilds annotated packages with -gcflags='-m -d=ssa/check_bce')")
		allowlist  = flag.String("allowlist", filepath.Join(".github", "noalloc_allowlist.txt"), "noalloc allowlist path, relative to the module directory")
		writeAllow = flag.Bool("write-allowlist", false, "regenerate the noalloc allowlist from fresh compiler output instead of linting")
	)
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := lint.Load(*dir, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var findings []lint.Finding
	if !*writeAllow {
		fs, err := lint.RunAnalyzers(pkgs, lint.Analyzers())
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		findings = append(findings, fs...)
	}
	if *escape || *writeAllow {
		path := *allowlist
		if !filepath.IsAbs(path) {
			path = filepath.Join(*dir, path)
		}
		fs, err := lint.EscapeCheck(*dir, pkgs, path, *writeAllow)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if *writeAllow {
			fmt.Fprintf(os.Stderr, "hnowlint: wrote %s\n", path)
		}
		findings = append(findings, fs...)
	}

	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "hnowlint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}
