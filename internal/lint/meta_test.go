package lint

import "testing"

// TestModuleIsClean is the meta-test from the issue: the whole module,
// loaded exactly the way cmd/hnowlint loads it, must produce zero
// findings from the source analyzer suite. Any regression an analyzer
// can see — base-scoring a model-bound schedule, dropping a Release on
// an error path, an off-convention expvar key, a stray //hnow:noalloc —
// fails this test with the same file:line diagnostic CI prints.
// (The compiler-backed noalloc diff is CI-only: it needs a full -a
// rebuild, see the workflow's `hnowlint -escape` step.)
func TestModuleIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("module-wide load uses the go tool; skipped in -short")
	}
	pkgs, err := Load("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages; the module has more — load is dropping targets", len(pkgs))
	}
	findings, err := RunAnalyzers(pkgs, Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}
