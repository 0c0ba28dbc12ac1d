package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestRefusesPositionalArguments: flag.Parse stops at the first non-flag, so
// `loggen feats.bin -sessions 3 -out mylog.bin` simulated 150 sessions from
// ./features.bin and wrote log.bin. The command must refuse the argument
// with exit 2 before it reads or writes anything. featextract and
// datasetgen parse through the same cmdline.Parse, which this pins.
func TestRefusesPositionalArguments(t *testing.T) {
	args := []string{"-features", "missing.bin", "feats.bin", "-sessions", "3", "-out", "mylog.bin"}
	if os.Getenv("LOGGEN_RUN_MAIN") != "" {
		os.Args = append([]string{"loggen"}, args...)
		main()
		return
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestRefusesPositionalArguments$")
	cmd.Dir, cmd.Env = dir, append(os.Environ(), "LOGGEN_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	if cmd.ProcessState == nil {
		t.Fatal(err)
	}
	if code := cmd.ProcessState.ExitCode(); code != 2 || !strings.Contains(string(out), `unexpected argument "feats.bin"`) {
		t.Fatalf("loggen %s: exit %d, want 2 and the argument named:\n%s", strings.Join(args, " "), code, out)
	}
	if entries, _ := os.ReadDir(dir); len(entries) > 0 {
		t.Errorf("the refused command wrote %s", entries[0].Name())
	}
}
