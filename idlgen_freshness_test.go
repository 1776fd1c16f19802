package pardis_test

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pardis/internal/idl"
	"pardis/internal/idlgen"
)

// TestGeneratedCodeUpToDate regenerates every committed zz_generated.go
// from its IDL source and fails if the compiler's output has drifted —
// the committed stubs must always be exactly what pardis-idl produces. A
// zz_generated.go of this module that the table does not list fails too,
// so no generated file goes unchecked. (benchmark/ is a module of its own,
// with its own freshness test.)
func TestGeneratedCodeUpToDate(t *testing.T) {
	cases := []struct {
		idlPath string
		genPath string
		pkg     string
		mapping string
	}{
		{"examples/quickstart/quickstart.idl", "examples/quickstart/zz_generated.go", "main", ""},
		{"examples/linsolve/linsolve.idl", "internal/apps/linsolveidl/zz_generated.go", "linsolveidl", ""},
		{"examples/dnadb/dnadb.idl", "internal/apps/dnadbidl/zz_generated.go", "dnadbidl", ""},
		{"examples/pipeline/pipeline.idl", "examples/pipeline/poomagen/zz_generated.go", "poomagen", "POOMA"},
		{"examples/pipeline/pipeline.idl", "examples/pipeline/pstlgen/zz_generated.go", "pstlgen", "HPC++"},
		{"examples/pipeline/pipeline.idl", "examples/pipeline/vizgen/zz_generated.go", "vizgen", ""},
		{"internal/bench/benchidl/bench.idl", "internal/bench/benchidl/zz_generated.go", "benchidl", ""},
		{"internal/idlgen/sample/sample.idl", "internal/idlgen/sample/zz_generated.go", "sample", ""},
		{"internal/registry/registry.idl", "internal/registry/regidl/zz_generated.go", "regidl", ""},
		{"cmd/pardis-demo/scaler.idl", "cmd/pardis-demo/zz_generated.go", "main", ""},
	}
	listed := map[string]bool{}
	for _, c := range cases {
		listed[c.genPath] = true
	}
	for _, path := range moduleGeneratedFiles(t) {
		if !listed[path] {
			t.Errorf("%s has no case in TestGeneratedCodeUpToDate; add its IDL source to the table", path)
		}
	}
	for _, c := range cases {
		c := c
		t.Run(c.genPath, func(t *testing.T) {
			src, err := os.ReadFile(c.idlPath)
			if err != nil {
				t.Fatal(err)
			}
			dir := filepath.Dir(c.idlPath)
			file, err := idl.ParseWithIncludes(string(src), func(name string) (string, error) {
				b, err := os.ReadFile(filepath.Join(dir, name))
				return string(b), err
			})
			if err != nil {
				t.Fatal(err)
			}
			spec, err := idl.Analyze(file)
			if err != nil {
				t.Fatal(err)
			}
			want, err := idlgen.Generate(spec, idlgen.Options{Package: c.pkg, Mapping: c.mapping})
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(c.genPath)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s is stale; regenerate with:\n  go run ./cmd/pardis-idl -package %s %s -o %s %s",
					c.genPath, c.pkg, mappingFlag(c.mapping), c.genPath, c.idlPath)
			}
		})
	}
}

// moduleGeneratedFiles lists every zz_generated.go of the root module, as
// slash-separated paths relative to its root. It skips what the go tool
// skips (directories named testdata or starting with "." or "_") and
// nested modules.
func moduleGeneratedFiles(t *testing.T) []string {
	var paths []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if d.Name() == "zz_generated.go" {
			paths = append(paths, filepath.ToSlash(path))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

func mappingFlag(m string) string {
	switch m {
	case "POOMA":
		return "-pooma"
	case "HPC++":
		return "-hpcxx"
	}
	return ""
}
