package pardis_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestExamplesRun executes every runnable example end-to-end and checks a
// landmark line of its output — the examples are the paper's §4 scenarios,
// so this is the repository's integration smoke test.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("examples run the full stack; skipped with -short")
	}
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"quickstart", []string{"run", "./examples/quickstart"}, "add: 42"},
		{"linsolve", []string{"run", "./examples/linsolve"}, "linsolve example completed"},
		{"dnadb", []string{"run", "./examples/dnadb"}, "exact list agrees with sequential oracle"},
		{"pipeline", []string{"run", "./examples/pipeline"}, "pipeline example completed"},
		{"idlcompile", []string{"run", "./examples/idlcompile"}, "generated stubs (POOMA mapping)"},
		{"tcp-demo", []string{"run", "./cmd/pardis-demo", "-role", "all"}, "all values verified"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			openSources(t, c.args[1])
			done := make(chan struct{})
			cmd := exec.Command("go", c.args...)
			var out []byte
			var err error
			go func() {
				out, err = cmd.CombinedOutput()
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(120 * time.Second):
				if cmd.Process != nil {
					cmd.Process.Kill()
				}
				<-done
				t.Fatalf("example timed out; output so far:\n%s", out)
			}
			if err != nil {
				t.Fatalf("example failed: %v\n%s", err, out)
			}
			if !strings.Contains(string(out), c.want) {
				t.Fatalf("output lacks %q:\n%s", c.want, out)
			}
		})
	}
}

// openSources opens every directory and Go source file of the module's
// packages that pkg depends on. The go run subprocess reads them where the
// test cache cannot see; opened here, they key the cached result, so an
// edit to an example or to what it runs makes the next go test rerun it.
func openSources(t *testing.T, pkg string) {
	out, err := exec.Command("go", "list", "-deps", "-f", "{{if not .Standard}}{{.Dir}} {{.GoFiles}}{{end}}", pkg).Output()
	if err != nil {
		t.Fatalf("go list -deps %s: %v", pkg, err)
	}
	for _, line := range strings.Split(string(out), "\n") {
		dir, files, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		paths := []string{dir}
		for _, name := range strings.Fields(strings.Trim(files, "[]")) {
			paths = append(paths, filepath.Join(dir, name))
		}
		for _, path := range paths {
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			f.Close()
		}
	}
}
