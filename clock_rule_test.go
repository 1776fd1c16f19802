package pardis_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestObservationReadsTheThreadClock holds the clock rule: the ORB and the
// POA stamp every span, latency histogram and SLO window on their thread's
// clock (ORB.w.ElapsedNS, POA.th.ElapsedNS), virtual on a simulated thread,
// so no non-test file of internal/core or internal/poa may use obs.NowNS,
// time.Now or time.Since, the process's wall clock.
func TestObservationReadsTheThreadClock(t *testing.T) {
	banned := map[string]map[string]bool{
		"pardis/internal/obs": {"NowNS": true},
		"time":                {"Now": true, "Since": true},
	}
	fset := token.NewFileSet()
	for _, dir := range []string{"internal/core", "internal/poa"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no Go files in %s: %v", dir, err)
		}
		for _, name := range files {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, name, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			imported := map[string]string{} // name in the file -> import path
			for _, imp := range f.Imports {
				p, _ := strconv.Unquote(imp.Path.Value)
				local := path.Base(p)
				if imp.Name != nil {
					local = imp.Name.Name
				}
				imported[local] = p
			}
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if pkg, ok := sel.X.(*ast.Ident); ok && banned[imported[pkg.Name]][sel.Sel.Name] {
					t.Errorf("%s: %s.%s reads the process's wall clock; read the thread's (ElapsedNS)",
						fset.Position(sel.Pos()), pkg.Name, sel.Sel.Name)
				}
				return true
			})
		}
	}
}
