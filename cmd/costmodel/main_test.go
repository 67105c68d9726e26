package main

import (
	"context"
	"errors"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// A year sweep that could not end, or an empty one, is a usage error:
// the run exits 2 at once instead of growing its table without bound.
func TestSweepArgumentsRejected(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "costmodel")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, args := range [][]string{
		{"-step", "0"},
		{"-step", "-1"},
		{"-step", "NaN"},
		{"-step", "1e-300"},
		{"-years", "-1"},
		{"-years", "+Inf"},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err := exec.CommandContext(ctx, bin, args...).Run()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("costmodel %v: %v, want exit status 2", args, err)
		}
	}
}
