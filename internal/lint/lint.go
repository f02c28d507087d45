// Package lint is the repository's static-analysis suite: one analyzer
// per invariant the code otherwise enforces only at runtime (requireBase
// panics, refcount leaks, hot-path allocation and bounds-check
// regressions, expvar key collisions). cmd/hnowlint drives it over the
// module; CI fails on any finding.
//
// The suite is stdlib-only by design — the module has no dependencies
// and the analyzers keep it that way: packages are loaded through
// `go list -export` plus the go/importer gc reader (see load.go), and
// each analyzer works on plain go/ast trees with go/types information.
// The trade-off against golang.org/x/tools/go/analysis is documented in
// the README: no SSA and no cross-package fact propagation, so the
// analyzers are intra-procedural and lean on in-repo annotations
// (//hnow:noalloc, //hnow:borrows) where cross-function knowledge is
// needed.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// A Finding is one diagnostic: an invariant violation at a position.
type Finding struct {
	Analyzer string         // invariant name, e.g. "modelbound"
	Pos      token.Position // file:line:col of the violation
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
}

// An Analyzer checks one invariant. Run is invoked once per package;
// Finish, when non-nil, runs after every package (for module-global
// checks such as expvar key uniqueness). Analyzer values carry per-run
// state, so constructors (ModelBound, Pairing, …) return fresh instances
// and a value must not be reused across Run* calls.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
	// Finish reports findings that need the whole module, after all
	// packages have been visited. The report function applies no ignore
	// filtering (module-global findings have no single suppressing line).
	Finish func(report func(Finding)) error
}

// A Pass is one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	ignores map[ignoreKey]bool
	report  func(Finding)
}

type ignoreKey struct {
	file     string
	line     int
	analyzer string // "" = all analyzers
}

// Reportf records a finding at pos unless a `//hnowlint:ignore` directive
// covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.ignores[ignoreKey{position.Filename, position.Line, p.Analyzer.Name}] ||
		p.ignores[ignoreKey{position.Filename, position.Line, ""}] {
		return
	}
	p.report(Finding{Analyzer: p.Analyzer.Name, Pos: position, Message: fmt.Sprintf(format, args...)})
}

// ignoreDirectives scans a package's comments for `//hnowlint:ignore
// <analyzer>|* [reason]` markers. A directive suppresses findings of the
// named analyzer (or every analyzer, for *) on its own line and on the
// following line, so it works both as a trailing comment and as a
// stand-alone line above the flagged statement.
func ignoreDirectives(fset *token.FileSet, files []*ast.File) map[ignoreKey]bool {
	out := map[ignoreKey]bool{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "hnowlint:ignore") {
					continue
				}
				fields := strings.Fields(strings.TrimPrefix(text, "hnowlint:ignore"))
				name := "*"
				if len(fields) > 0 {
					name = fields[0]
				}
				if name == "*" {
					name = ""
				}
				pos := fset.Position(c.Pos())
				out[ignoreKey{pos.Filename, pos.Line, name}] = true
				out[ignoreKey{pos.Filename, pos.Line + 1, name}] = true
			}
		}
	}
	return out
}

// RunAnalyzers applies each analyzer to each package and returns the
// combined findings sorted by position. Analyzer state accumulates
// across packages, so Finish hooks see the whole run.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Finding, error) {
	var findings []Finding
	report := func(f Finding) { findings = append(findings, f) }
	for _, a := range analyzers {
		for _, pkg := range pkgs {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				ignores:  pkg.ignores,
				report:   report,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
		if a.Finish != nil {
			if err := a.Finish(report); err != nil {
				return nil, fmt.Errorf("lint: %s finish: %w", a.Name, err)
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return findings, nil
}

// Analyzers returns fresh instances of the source-level analyzer suite
// (everything except the compiler-backed half of noalloc, which needs a
// compiler run — see EscapeCheck).
func Analyzers() []*Analyzer {
	return []*Analyzer{ModelBound(), Pairing(), ExpvarName(), Noalloc(nil)}
}

// calleeFullName resolves a call's target to its types.Func full name,
// e.g. "repro/internal/model.ComputeTimes" for package functions and
// "(*repro/internal/exact.Table).Retain" for methods. It returns "" for
// calls through function-typed variables or fields, conversions, and
// built-ins.
func calleeFullName(info *types.Info, call *ast.CallExpr) string {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return ""
	}
	if fn, ok := info.Uses[id].(*types.Func); ok {
		return fn.FullName()
	}
	return ""
}

// receiverExpr returns the receiver expression of a method call
// (`x.M(...)` gives x), or nil for plain function calls.
func receiverExpr(call *ast.CallExpr) ast.Expr {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return sel.X
	}
	return nil
}

// identObject resolves an expression to the object of its root
// identifier when the expression is a plain (possibly parenthesized)
// identifier; nil otherwise.
func identObject(info *types.Info, e ast.Expr) types.Object {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		if obj := info.Uses[id]; obj != nil {
			return obj
		}
		return info.Defs[id]
	}
	return nil
}

// mentionsObject reports whether expression e references obj anywhere.
func mentionsObject(info *types.Info, e ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}
