package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// An unknown -device is rejected before any artifact file is opened, so
// the run leaves no empty CPU profile behind.
func TestDeviceCheckedBeforeArtifacts(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "dramsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	prof := filepath.Join(dir, "cpu.prof")
	err := exec.Command(bin, "-device", "7", "-cpuprofile", prof).Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("dramsim -device 7: %v, want exit status 2", err)
	}
	if _, err := os.Stat(prof); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("dramsim -device 7 left %s behind (stat: %v)", prof, err)
	}
}
