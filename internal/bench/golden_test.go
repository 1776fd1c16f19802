package bench

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
)

// The shape tests assert who wins and by roughly what factor; the golden
// file pins the exact modeled numbers they compute, so a change that moves
// any figure shows in its diff. Regenerate it with
//
//	go test ./internal/bench -update
//
// and read the diff before committing it. The file is rebuilt from that run
// alone, so an entry no test computes any more drops out; -update therefore
// refuses a run that -run or -skip narrows.

var update = flag.Bool("update", false, "rewrite "+goldenPath+" from the values this run computes")

const goldenPath = "testdata/figures.golden.json"

// golden is the file's entries, by the call that computed each; under
// -update, it holds this run's values, which TestMain writes to the file.
var golden = map[string]json.RawMessage{}

func TestMain(m *testing.M) {
	flag.Parse()
	if *update {
		for _, name := range []string{"test.run", "test.skip"} {
			if f := flag.Lookup(name); f != nil && f.Value.String() != "" {
				fmt.Fprintf(os.Stderr, "-update rewrites %s from every test's values; drop -%s\n", goldenPath, name[len("test."):])
				os.Exit(2)
			}
		}
	} else if b, err := os.ReadFile(goldenPath); err == nil {
		if err := json.Unmarshal(b, &golden); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", goldenPath, err)
			os.Exit(1)
		}
	}
	code := m.Run()
	if *update {
		b, err := json.MarshalIndent(golden, "", "  ")
		if err == nil {
			err = os.WriteFile(goldenPath, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", goldenPath, err)
			code = 1
		}
	}
	os.Exit(code)
}

// checkGolden compares v, as JSON, with the golden entry for key. The
// figures run on the virtual clock, so the comparison is exact. The file is
// written on linux/amd64, the platform ci.sh runs on; an architecture that
// fuses multiply-adds rounds differently, so elsewhere the check only logs.
func checkGolden(t *testing.T, key string, v any) {
	t.Helper()
	got, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		golden[key] = got
		return
	}
	raw, ok := golden[key]
	if !ok {
		t.Errorf("%s has no entry in %s; regenerate it with go test ./internal/bench -update", key, goldenPath)
		return
	}
	var want bytes.Buffer
	if err := json.Compact(&want, raw); err != nil {
		t.Fatalf("%s: %v", goldenPath, err)
	}
	if bytes.Equal(got, want.Bytes()) {
		return
	}
	msg := fmt.Sprintf("%s moved from %s:\n got %s\nwant %s\n(a change meant to move it regenerates the file with go test ./internal/bench -update)",
		key, goldenPath, got, want.Bytes())
	if runtime.GOARCH != "amd64" {
		t.Log(msg)
		return
	}
	t.Error(msg)
}
