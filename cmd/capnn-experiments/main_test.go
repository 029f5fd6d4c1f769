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
// binary: a negative -combos is a usage error (exit 2), not a request
// for the default scale.
func TestNegativeCombosRefused(t *testing.T) {
	if args := os.Getenv("CAPNN_EXPERIMENTS_ARGS"); args != "" {
		os.Args = append([]string{"capnn-experiments"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestNegativeCombosRefused$")
	cmd.Env = append(os.Environ(), "CAPNN_EXPERIMENTS_ARGS=-combos -3 -artifact memory -quiet")
	var stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = io.Discard, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("-combos -3: %v, want exit status 2; stderr:\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "-combos -3") {
		t.Errorf("stderr does not name the flag:\n%s", stderr.String())
	}
}
