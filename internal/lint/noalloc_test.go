package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// cannedDiagnostics is -gcflags='-m -d=ssa/check_bce' output for two
// annotated functions: two prologue bounds checks in kernChildTimes and
// two allocations in (*Engine).Eval, one of them repeated the way
// inlining repeats a position. Around them sit a bounds check and an
// allocation outside any annotated function, a non-allocation
// diagnostic inside one, and compiler noise; all of those are ignored.
const cannedDiagnostics = `# repro/internal/model
internal/model/kernels.go:22:7: Found IsSliceInBounds
internal/model/kernels.go:23:9: Found IsSliceInBounds
internal/model/kernels.go:5:2: Found IsInBounds
internal/model/engine.go:410:20: fmt.Sprintf("model: Eval: unknown move kind %d", ... argument...) escapes to heap
internal/model/engine.go:410:60: mv.Kind escapes to heap
internal/model/engine.go:410:60: mv.Kind escapes to heap
internal/model/engine.go:10:5: make([]int64, n) escapes to heap
internal/model/engine.go:405:9: leaking param: e
internal/model/engine.go:402:2: inlining call to kernFill
not a diagnostic line
`

// cannedFuncs are the annotated functions cannedDiagnostics falls in,
// with every line moved down by shift.
func cannedFuncs(moduleDir string, shift int) []NoallocFunc {
	return []NoallocFunc{{
		PkgPath: "repro/internal/model",
		Name:    "kernChildTimes",
		File:    filepath.Join(moduleDir, "internal/model/kernels.go"),
		Start:   21 + shift,
		End:     29 + shift,
	}, {
		PkgPath: "repro/internal/model",
		Name:    "(*Engine).Eval",
		File:    filepath.Join(moduleDir, "internal/model/engine.go"),
		Start:   400 + shift,
		End:     415 + shift,
	}}
}

// shiftLines moves every diagnostic in raw down by n lines.
func shiftLines(raw string, n int) string {
	lines := strings.Split(raw, "\n")
	for i, l := range lines {
		if m := diagnosticLine.FindStringSubmatch(l); m != nil {
			line, _ := strconv.Atoi(m[2])
			lines[i] = fmt.Sprintf("%s:%d:%s: %s", m[1], line+n, m[3], m[4])
		}
	}
	return strings.Join(lines, "\n")
}

// cannedAllowlist writes the allowlist cannedDiagnostics generates and
// reads it back, so the diff tests go through the committed format.
func cannedAllowlist(t *testing.T) (string, []allowEntry) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "noalloc_allowlist.txt")
	if err := writeAllowlist(path, noallocCounts("/mod", cannedDiagnostics, cannedFuncs("/mod", 0))); err != nil {
		t.Fatal(err)
	}
	allowed, err := readAllowlist(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, allowed
}

func TestEscapesInFuncs(t *testing.T) {
	got := noallocCounts("/mod", cannedDiagnostics, cannedFuncs("/mod", 0))
	want := []noallocCount{
		{noallocKey{"repro/internal/model.(*Engine).Eval", `fmt.Sprintf("model: Eval: unknown move kind %d", ... argument...) escapes to heap`}, 1},
		{noallocKey{"repro/internal/model.(*Engine).Eval", "mv.Kind escapes to heap"}, 1},
		{noallocKey{"repro/internal/model.kernChildTimes", "Found IsSliceInBounds"}, 2},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("noallocCounts =\n%v\nwant\n%v", got, want)
	}
}

// TestEscapesInFuncsDedupes: inlining repeats positions, so a position
// seen three times still counts once and leaves the allowlist matching.
func TestEscapesInFuncsDedupes(t *testing.T) {
	path, allowed := cannedAllowlist(t)
	raw := cannedDiagnostics + strings.Repeat("internal/model/kernels.go:23:9: Found IsSliceInBounds\n", 2)
	funcs := cannedFuncs("/mod", 0)
	for _, c := range noallocCounts("/mod", raw, funcs) {
		if c.Func == "repro/internal/model.kernChildTimes" && c.N != 2 {
			t.Errorf("kernChildTimes counted %d positions, want 2", c.N)
		}
	}
	if fs := diffAllowlist(noallocCounts("/mod", raw, funcs), allowed, funcs, path); len(fs) != 0 {
		t.Errorf("repeated positions produced findings: %v", fs)
	}
}

// TestNoallocAllowlistDiff diffs variations of cannedDiagnostics against
// the allowlist they generate: moving code is not a finding, a new bounds
// check or allocation is one, reported at its function's declaration.
func TestNoallocAllowlistDiff(t *testing.T) {
	path, allowed := cannedAllowlist(t)
	cases := []struct {
		name  string
		raw   string
		shift int
		fn    int    // index into cannedFuncs of the reported function
		want  string // substring of the single finding; "" for none
	}{
		{"shifted lines", shiftLines(cannedDiagnostics, 37), 37, 0, ""},
		{"new bounds check", cannedDiagnostics + "internal/model/kernels.go:26:10: Found IsInBounds\n", 0, 0,
			"new bounds check in //hnow:noalloc function kernChildTimes"},
		{"new escape", cannedDiagnostics + "internal/model/engine.go:412:14: make([]int64, n) escapes to heap\n", 0, 1,
			"new heap allocation in //hnow:noalloc function (*Engine).Eval"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			funcs := cannedFuncs("/mod", tc.shift)
			fs := diffAllowlist(noallocCounts("/mod", tc.raw, funcs), allowed, funcs, path)
			if tc.want == "" {
				if len(fs) != 0 {
					t.Fatalf("want no findings, got %v", fs)
				}
				return
			}
			if len(fs) != 1 || !strings.Contains(fs[0].Message, tc.want) {
				t.Fatalf("want one finding containing %q, got %v", tc.want, fs)
			}
			if f := funcs[tc.fn]; fs[0].Pos.Filename != f.File || fs[0].Pos.Line != f.Start {
				t.Errorf("finding at %v, want the declaration %s:%d", fs[0].Pos, f.File, f.Start)
			}
		})
	}
}

// TestNoallocStaleEntry: an allowlist entry the compiler no longer
// produces is one finding, at its allowlist line.
func TestNoallocStaleEntry(t *testing.T) {
	path, allowed := cannedAllowlist(t)
	stale := append(allowed, allowEntry{noallocCount{noallocKey{"repro/internal/model.kernChildTimes", "Found IsInBounds"}, 1}, 9})
	funcs := cannedFuncs("/mod", 0)
	fs := diffAllowlist(noallocCounts("/mod", cannedDiagnostics, funcs), stale, funcs, path)
	if len(fs) != 1 || !strings.Contains(fs[0].Message, "stale allowlist entry") || fs[0].Pos.Filename != path || fs[0].Pos.Line != 9 {
		t.Fatalf("want one stale finding at %s:9, got %v", path, fs)
	}
}

func TestReadAllowlist(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "allow.txt")
	content := "# header\n\npkg.f 2 Found IsSliceInBounds\n# comment\npkg.(*T).g 1 fmt.Sprintf(\"a: %d\", ... argument...) escapes to heap\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := readAllowlist(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []allowEntry{
		{noallocCount{noallocKey{"pkg.f", "Found IsSliceInBounds"}, 2}, 3},
		{noallocCount{noallocKey{"pkg.(*T).g", `fmt.Sprintf("a: %d", ... argument...) escapes to heap`}, 1}, 5},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("readAllowlist = %+v, want %+v", got, want)
	}
	if missing, err := readAllowlist(filepath.Join(dir, "nope.txt")); err != nil || missing != nil {
		t.Fatalf("missing allowlist should read as empty, got %+v, %v", missing, err)
	}
	for _, bad := range []string{"pkg.f Found IsInBounds\n", "pkg.f 0 Found IsInBounds\n", "pkg.f 1 x\npkg.f 2 x\n"} {
		if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := readAllowlist(path); err == nil {
			t.Errorf("readAllowlist accepted %q", bad)
		}
	}
}

// TestEscapeAllowlistMatchesFuncs sanity-checks the committed allowlist:
// every entry must name a currently annotated function, so a refactor
// that renames or de-annotates a hot path cannot leave the list
// silently vouching for nothing. (CI additionally diffs against fresh
// compiler output, which this test deliberately does not run.)
func TestEscapeAllowlistMatchesFuncs(t *testing.T) {
	moduleDir, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	allow, err := readAllowlist(filepath.Join(moduleDir, ".github", "noalloc_allowlist.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(allow) == 0 {
		t.Fatal("empty allowlist: the kernels' prologue bounds checks alone should be listed")
	}
	pkgs, err := Load(moduleDir, "./...")
	if err != nil {
		t.Fatal(err)
	}
	annotated := map[string]bool{}
	for _, f := range CollectNoalloc(pkgs) {
		annotated[f.qualifiedName()] = true
	}
	for _, entry := range allow {
		if !annotated[entry.Func] {
			t.Errorf("allowlist line %d names %s, which is not a //hnow:noalloc function; regenerate with -write-allowlist", entry.line, entry.Func)
		}
	}
}
