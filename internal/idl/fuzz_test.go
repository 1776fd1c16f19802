package idl

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzParse feeds arbitrary source to the whole front end: the include
// expander (with a resolver that always fails), the lexer and parser, the
// semantic pass, and the conversion of each interface to its runtime
// table. The property is that hostile source yields an error or a spec —
// never a panic. The corpus is seeded with every .idl file in the module.
func FuzzParse(f *testing.F) {
	root := filepath.Join("..", "..")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != root && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir // .git and build caches
		case d.IsDir() || filepath.Ext(path) != ".idl":
			return nil
		}
		src, err := os.ReadFile(path)
		if err == nil {
			f.Add(string(src))
		}
		return err
	})
	if err != nil {
		f.Fatal(err)
	}
	noIncludes := func(string) (string, error) { return "", errors.New("no includes") }
	f.Fuzz(func(t *testing.T, src string) {
		file, err := ParseWithIncludes(src, noIncludes)
		if err != nil {
			return
		}
		spec, err := Analyze(file)
		if err != nil {
			return
		}
		for _, ii := range spec.Interfaces {
			ii.CoreDef()
		}
	})
}
