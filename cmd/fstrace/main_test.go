package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// asMainEnv makes the test binary run main() instead of the tests, so
// the golden test drives fstrace as a subprocess: real flag parsing,
// real stdout and exit status.
const asMainEnv = "FSTRACE_TEST_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// goldenRuns cover both trace kinds at short windows: the locality
// trace under its defaults, and the latency quantiles under the defaults
// and with every host flag moved.
var goldenRuns = []struct {
	name string
	args []string
}{
	{"locality", []string{"-kind", "locality", "-ms", "3", "-limit", "5000"}},
	{"latency", []string{"-kind", "latency", "-ms", "5"}},
	{"latency_shape", []string{"-kind", "latency", "-ms", "5", "-flows", "7", "-ring", "512", "-seed", "3", "-rpc", "512"}},
}

// TestGoldenFstraceRuns locks fstrace's stdout byte for byte for each
// goldenRuns vector. Regenerate with
// UPDATE_GOLDEN=1 go test ./cmd/fstrace -run Golden.
func TestGoldenFstraceRuns(t *testing.T) {
	update := os.Getenv("UPDATE_GOLDEN") != ""
	for _, g := range goldenRuns {
		cmd := exec.Command(os.Args[0], g.args...)
		cmd.Env = append(os.Environ(), asMainEnv+"=1")
		var out, errOut bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &errOut
		if err := cmd.Run(); err != nil || errOut.Len() > 0 {
			t.Fatalf("%s: %v, stderr %q", g.name, err, errOut.String())
		}
		path := filepath.Join("testdata", "golden", g.name+".csv")
		if update {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (regenerate with UPDATE_GOLDEN=1)", g.name, err)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Errorf("%s diverged from golden file %s:\ngot:\n%s\nwant:\n%s", g.name, path, out.Bytes(), want)
		}
	}
}
