package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// An unknown -device or a non-positive geometry is rejected before any
// artifact file is opened: the run exits 2 with a message, not a panic,
// and leaves no empty CPU profile behind.
func TestDeviceCheckedBeforeArtifacts(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "dramsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	prof := filepath.Join(dir, "cpu.prof")
	for _, args := range [][]string{
		{"-device", "7"},
		{"-channels", "0"},
		{"-ranks", "-1"},
	} {
		var stderr bytes.Buffer
		cmd := exec.Command(bin, append(args, "-cpuprofile", prof)...)
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("dramsim %v: %v, want exit status 2", args, err)
		}
		if strings.Contains(stderr.String(), "panic:") {
			t.Errorf("dramsim %v panicked:\n%s", args, stderr.String())
		}
		if _, err := os.Stat(prof); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("dramsim %v left %s behind (stat: %v)", args, prof, err)
			os.Remove(prof)
		}
	}
}
