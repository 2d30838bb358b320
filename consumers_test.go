package cimrev

// Consumer check: every internal/* package must be imported by at least
// one non-test Go file outside its own directory. A package that only its
// own tests (or other tests) use produces nothing the repo reports, so it
// is dead code and should be deleted rather than kept alive. cimperf is a
// separate module with its own build and is not counted as a consumer;
// hidden directories (.git, build caches) and testdata are skipped.

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

func TestInternalPackagesHaveConsumers(t *testing.T) {
	const module = "cimrev/"
	packages := map[string]bool{} // internal/x -> has non-test .go files
	consumed := map[string]bool{} // import path -> imported from outside its dir
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(name, ".") || name == "cimperf" || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		if path.Dir(dir) == "internal" {
			packages[dir] = true
		}
		f, err := parser.ParseFile(fset, p, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			ip, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			if ip != module+dir {
				consumed[ip] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(packages) == 0 {
		t.Fatal("no internal packages found; the walk must start at the module root")
	}
	var dead []string
	for dir := range packages {
		if !consumed[module+dir] {
			dead = append(dead, dir)
		}
	}
	sort.Strings(dead)
	for _, dir := range dead {
		t.Errorf("%s has no consumer: no non-test .go file outside it imports %s%s", dir, module, dir)
	}
}
