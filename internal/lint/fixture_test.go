package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// LoadDir parses and type-checks one directory of Go files outside the
// normal build (analyzer test fixtures live under testdata, which the go
// tool ignores). Imports are resolved by asking the go tool, from
// moduleDir, for export data of exactly the packages the files import.
func LoadDir(moduleDir, dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}

	fset := token.NewFileSet()
	var files []*ast.File
	importSet := map[string]bool{}
	for _, name := range names {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
		for _, spec := range f.Imports {
			path, _ := strconv.Unquote(spec.Path.Value)
			if path != "" && path != "unsafe" {
				importSet[path] = true
			}
		}
	}
	imports := make([]string, 0, len(importSet))
	for p := range importSet {
		imports = append(imports, p)
	}
	sort.Strings(imports)

	exports := map[string]string{}
	if len(imports) > 0 {
		args := append([]string{"list", "-export", "-deps", "-json=ImportPath,Export,Error"}, imports...)
		cmd := exec.Command("go", args...)
		cmd.Dir = moduleDir
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("lint: go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
		}
		dec := json.NewDecoder(bytes.NewReader(out))
		for {
			var p listedPackage
			if err := dec.Decode(&p); err == io.EOF {
				break
			} else if err != nil {
				return nil, fmt.Errorf("lint: decoding go list output: %w", err)
			}
			if p.Error != nil {
				return nil, fmt.Errorf("lint: %s: %s", p.ImportPath, p.Error.Err)
			}
			if p.Export != "" {
				exports[p.ImportPath] = p.Export
			}
		}
	}
	return checkFiles(fset, exportImporter(fset, exports), "fixture/"+filepath.Base(dir), dir, files)
}
