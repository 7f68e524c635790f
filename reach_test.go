package lscatter

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestInternalPackagesReachable enforces that every internal package serves
// a program: it must be imported, directly or through other internal
// packages, by a command, an example, a tool or the benchmark harness.
// Imports from _test.go files do not count, so a package that only tests
// reach fails here.
func TestInternalPackagesReachable(t *testing.T) {
	const module = "lscatter"
	imports := map[string][]string{} // import path -> imports of its non-test files
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		pkg := path.Join(module, filepath.ToSlash(filepath.Dir(p)))
		deps := imports[pkg]
		for _, spec := range f.Imports {
			dep, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				return err
			}
			deps = append(deps, dep)
		}
		imports[pkg] = deps // stored even when empty: the key marks the package
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var queue []string
	for pkg := range imports {
		for _, root := range []string{"cmd", "examples", "tools", "perfbench"} {
			if pkg == module+"/"+root || strings.HasPrefix(pkg, module+"/"+root+"/") {
				queue = append(queue, pkg)
			}
		}
	}
	if len(queue) == 0 {
		t.Fatal("found no programs under cmd/, examples/, tools/ or perfbench/")
	}
	reached := map[string]bool{}
	for len(queue) > 0 {
		pkg := queue[0]
		queue = queue[1:]
		if reached[pkg] {
			continue
		}
		reached[pkg] = true
		queue = append(queue, imports[pkg]...)
	}

	var unreached []string
	for pkg := range imports {
		if strings.HasPrefix(pkg, module+"/internal/") && !reached[pkg] {
			unreached = append(unreached, pkg)
		}
	}
	sort.Strings(unreached)
	for _, pkg := range unreached {
		t.Errorf("%s is not imported by any program under cmd/, examples/, tools/ or perfbench/", pkg)
	}
}
