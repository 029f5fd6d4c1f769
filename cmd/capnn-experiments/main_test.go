package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestNegativeCombosRefused runs main in a child copy of the test
// binary: a negative -combos or an unknown -artifact is a usage error
// (exit 2) that names the bad value, refused before any fixture loads,
// not a request for the default scale.
func TestNegativeCombosRefused(t *testing.T) {
	if args := os.Getenv("CAPNN_EXPERIMENTS_ARGS"); args != "" {
		os.Args = append([]string{"capnn-experiments"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	for _, tc := range []struct{ args, names string }{
		{"-combos -3 -artifact memory -quiet", "-combos -3"},
		{"-artifact claims", `"claims"`}, // not -quiet: a fixture load would log
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestNegativeCombosRefused$")
		cmd.Env = append(os.Environ(), "CAPNN_EXPERIMENTS_ARGS="+tc.args)
		var stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = io.Discard, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("%s: %v, want exit status 2; stderr:\n%s", tc.args, err, stderr.String())
		}
		if !strings.Contains(stderr.String(), tc.names) || strings.Count(stderr.String(), "\n") != 1 {
			t.Errorf("%s: stderr is not one line naming %s:\n%s", tc.args, tc.names, stderr.String())
		}
	}
}
