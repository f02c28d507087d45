package lint

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// noallocDirective marks a function whose body must not allocate or
// gain bounds checks: the engine/kernel hot paths. The claim is verified
// against the compiler's own escape analysis and bounds-check report
// (-gcflags='-m -d=ssa/check_bce'), not by source inspection — see
// EscapeCheck.
const noallocDirective = "hnow:noalloc"

// NoallocFunc is one annotated function's source extent.
type NoallocFunc struct {
	PkgPath string
	Name    string // display name, e.g. "(*Engine).EvalMoves"
	File    string // path as recorded in the file set
	Start   int    // first line of the declaration
	End     int    // last line of the body
}

// Noalloc returns the source half of the no-allocation check: it
// validates that every //hnow:noalloc directive sits in the doc comment
// of a function with a body (anywhere else it silently does nothing,
// which is worse than an error) and, when collect is non-nil, records
// each annotated function for EscapeCheck. The compiler-backed half
// cannot run per-package here because it needs a full compiler rebuild;
// the driver runs it separately.
func Noalloc(collect *[]NoallocFunc) *Analyzer {
	a := &Analyzer{
		Name: "noalloc",
		Doc:  "//hnow:noalloc directive misplaced (must be a doc-comment line of a function with a body)",
	}
	a.Run = func(pass *Pass) error {
		for _, file := range pass.Files {
			valid := map[*ast.CommentGroup]bool{}
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Doc == nil || !hasDirective(fn.Doc, noallocDirective) {
					continue
				}
				valid[fn.Doc] = true
				if fn.Body == nil {
					pass.Reportf(fn.Pos(), "//hnow:noalloc on %s, which has no body to check", fn.Name.Name)
					continue
				}
				if collect != nil {
					*collect = append(*collect, NoallocFunc{
						PkgPath: pass.Pkg.Path(),
						Name:    funcDisplayName(fn),
						File:    pass.Fset.Position(fn.Pos()).Filename,
						Start:   pass.Fset.Position(fn.Pos()).Line,
						End:     pass.Fset.Position(fn.Body.End()).Line,
					})
				}
			}
			for _, cg := range file.Comments {
				if valid[cg] || !hasDirective(cg, noallocDirective) {
					continue
				}
				for _, c := range cg.List {
					if strings.TrimSpace(strings.TrimPrefix(c.Text, "//")) == noallocDirective {
						pass.Reportf(c.Pos(), "//hnow:noalloc has no effect here; it must be part of a function's doc comment")
					}
				}
			}
		}
		return nil
	}
	return a
}

// funcDisplayName renders a FuncDecl name with its receiver, matching
// how readers of the allowlist will look it up.
func funcDisplayName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	var buf bytes.Buffer
	switch t := fn.Recv.List[0].Type.(type) {
	case *ast.StarExpr:
		if id, ok := t.X.(*ast.Ident); ok {
			fmt.Fprintf(&buf, "(*%s)", id.Name)
		}
	case *ast.Ident:
		fmt.Fprintf(&buf, "(%s)", t.Name)
	case *ast.IndexExpr, *ast.IndexListExpr:
		buf.WriteString("(generic)")
	}
	if buf.Len() == 0 {
		return fn.Name.Name
	}
	return buf.String() + "." + fn.Name.Name
}

// diagnosticLine matches one compiler diagnostic from -m or check_bce
// output.
var diagnosticLine = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.+)$`)

// CollectNoalloc gathers the //hnow:noalloc-annotated functions from
// loaded packages without reporting anything.
func CollectNoalloc(pkgs []*Package) []NoallocFunc {
	var funcs []NoallocFunc
	a := Noalloc(&funcs)
	for _, pkg := range pkgs {
		pass := &Pass{
			Analyzer: a, Fset: pkg.Fset, Files: pkg.Files,
			Pkg: pkg.Types, Info: pkg.Info,
			ignores: pkg.ignores, report: func(Finding) {},
		}
		if err := a.Run(pass); err != nil {
			// Run never returns an error today; keep the signature honest.
			panic(err)
		}
	}
	return funcs
}

// EscapeCheck is the compiler-backed half of noalloc. It rebuilds the
// packages containing annotated functions once with
// -gcflags='-m -d=ssa/check_bce', keeps every "escapes to heap", "moved
// to heap" and "Found Is*InBounds" diagnostic that falls inside an
// annotated function, and diffs them against the committed allowlist.
// The allowlist is keyed by (package-qualified function, message, count
// of distinct positions), so code that only shifts lines leaves it
// valid. Both directions fail: a fresh bounds check or heap allocation
// is a hot-path regression (reported at the function's declaration),
// and a stale entry means the list no longer reflects reality (reported
// at its allowlist line). With write set, the fresh counts replace the
// allowlist instead.
func EscapeCheck(moduleDir string, pkgs []*Package, allowlistPath string, write bool) ([]Finding, error) {
	// The fset records absolute paths (go list reports absolute package
	// dirs); compiler output is relative to the build dir. Absolutize the
	// module dir so the two join up.
	abs, err := filepath.Abs(moduleDir)
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	moduleDir = abs
	funcs := CollectNoalloc(pkgs)
	if len(funcs) == 0 {
		return nil, fmt.Errorf("lint: no //hnow:noalloc functions in the loaded packages; nothing to check")
	}
	pathSet := map[string]bool{}
	for _, f := range funcs {
		pathSet[f.PkgPath] = true
	}
	paths := make([]string, 0, len(pathSet))
	for p := range pathSet {
		paths = append(paths, p)
	}
	sort.Strings(paths)

	// -a defeats the build cache: a cached package produces no
	// diagnostics, which would read as "nothing to report".
	args := append([]string{"build", "-a", "-o", os.DevNull, "-gcflags=-m -d=ssa/check_bce"}, paths...)
	cmd := exec.Command("go", args...)
	cmd.Dir = moduleDir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("lint: go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}

	fresh := noallocCounts(moduleDir, stderr.String(), funcs)
	if write {
		return nil, writeAllowlist(allowlistPath, fresh)
	}
	allowed, err := readAllowlist(allowlistPath)
	if err != nil {
		return nil, err
	}
	return diffAllowlist(fresh, allowed, funcs, allowlistPath), nil
}

// noallocKey is what the allowlist is keyed by: no line numbers, so
// code that only moves keeps its key.
type noallocKey struct {
	Func string // package-qualified, e.g. "repro/internal/model.(*Engine).Eval"
	Msg  string // compiler message, e.g. "Found IsSliceInBounds"
}

// noallocCount is one allowlist key with its count of distinct source
// positions.
type noallocCount struct {
	noallocKey
	N int
}

// String renders the count as an allowlist line.
func (c noallocCount) String() string { return fmt.Sprintf("%s %d %s", c.Func, c.N, c.Msg) }

// qualifiedName is the function's allowlist key.
func (f NoallocFunc) qualifiedName() string { return f.PkgPath + "." + f.Name }

// keptDiagnostic reports whether a compiler message is one the noalloc
// check tracks: a heap allocation or a surviving bounds check.
func keptDiagnostic(msg string) bool {
	return strings.Contains(msg, "escapes to heap") || strings.Contains(msg, "moved to heap") ||
		strings.HasPrefix(msg, "Found Is") && strings.HasSuffix(msg, "InBounds")
}

// noallocCounts extracts, from raw compiler output, the kept diagnostics
// inside annotated functions, counted per (function, message) over
// distinct positions: inlining repeats a position once per call site,
// which must not inflate the count. The result is sorted by function,
// then message.
func noallocCounts(moduleDir, raw string, funcs []NoallocFunc) []noallocCount {
	positions := map[noallocKey]map[string]bool{}
	for _, line := range strings.Split(raw, "\n") {
		m := diagnosticLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil || !keptDiagnostic(m[4]) {
			continue
		}
		file := m[1]
		if !filepath.IsAbs(file) {
			file = filepath.Join(moduleDir, file)
		}
		lineNo, _ := strconv.Atoi(m[2])
		for _, f := range funcs {
			if file == f.File && lineNo >= f.Start && lineNo <= f.End {
				k := noallocKey{f.qualifiedName(), m[4]}
				if positions[k] == nil {
					positions[k] = map[string]bool{}
				}
				positions[k][file+":"+m[2]+":"+m[3]] = true
				break
			}
		}
	}
	out := make([]noallocCount, 0, len(positions))
	for k, ps := range positions {
		out = append(out, noallocCount{k, len(ps)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Func != out[j].Func {
			return out[i].Func < out[j].Func
		}
		return out[i].Msg < out[j].Msg
	})
	return out
}

// diffAllowlist compares fresh counts with the allowlist. A key whose
// fresh count exceeds its allowance is reported at the function's
// declaration; an entry whose allowance exceeds the fresh count is
// stale and reported at its allowlist line.
func diffAllowlist(fresh []noallocCount, allowed []allowEntry, funcs []NoallocFunc, allowlistPath string) []Finding {
	decl := map[string]NoallocFunc{}
	for _, f := range funcs {
		decl[f.qualifiedName()] = f
	}
	allowN := map[noallocKey]int{}
	for _, e := range allowed {
		allowN[e.noallocKey] = e.N
	}
	freshN := map[noallocKey]int{}
	var findings []Finding
	for _, c := range fresh {
		freshN[c.noallocKey] = c.N
		if c.N <= allowN[c.noallocKey] {
			continue
		}
		f := decl[c.Func]
		what := "heap allocation"
		if strings.HasPrefix(c.Msg, "Found Is") {
			what = "bounds check"
		}
		findings = append(findings, Finding{
			Analyzer: "noalloc",
			Pos:      token.Position{Filename: f.File, Line: f.Start},
			Message: fmt.Sprintf("new %s in //hnow:noalloc function %s: %q at %d position(s), %s allows %d (fix it, or regenerate with -write-allowlist)",
				what, f.Name, c.Msg, c.N, filepath.Base(allowlistPath), allowN[c.noallocKey]),
		})
	}
	for _, e := range allowed {
		if n := freshN[e.noallocKey]; n < e.N {
			findings = append(findings, Finding{
				Analyzer: "noalloc",
				Pos:      token.Position{Filename: allowlistPath, Line: e.line},
				Message:  fmt.Sprintf("stale allowlist entry %q: the compiler now reports %d position(s); remove it or regenerate with -write-allowlist", e.noallocCount, n),
			})
		}
	}
	return findings
}

const allowlistHeader = `# Bounds checks and heap allocations the //hnow:noalloc functions are
# allowed to keep: function, count of distinct positions, compiler message.
# Regenerate with: go run ./cmd/hnowlint -write-allowlist ./...
`

// writeAllowlist replaces the allowlist with the fresh counts.
func writeAllowlist(path string, fresh []noallocCount) error {
	var buf bytes.Buffer
	buf.WriteString(allowlistHeader)
	for _, c := range fresh {
		buf.WriteString(c.String())
		buf.WriteByte('\n')
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// allowEntry is one parsed allowlist line.
type allowEntry struct {
	noallocCount
	line int
}

// readAllowlist loads the committed allowlist; a missing file is an
// empty list, '#' lines and blanks are skipped, and any other line must
// read "function count message".
func readAllowlist(path string) ([]allowEntry, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	var out []allowEntry
	seen := map[noallocKey]bool{}
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fn, rest, _ := strings.Cut(line, " ")
		count, msg, _ := strings.Cut(rest, " ")
		n, err := strconv.Atoi(count)
		if err != nil || n < 1 || msg == "" {
			return nil, fmt.Errorf("lint: %s:%d: want \"function count message\", got %q", path, i+1, line)
		}
		k := noallocKey{fn, msg}
		if seen[k] {
			return nil, fmt.Errorf("lint: %s:%d: duplicate entry for %s %q", path, i+1, fn, msg)
		}
		seen[k] = true
		out = append(out, allowEntry{noallocCount{k, n}, i + 1})
	}
	return out, nil
}
