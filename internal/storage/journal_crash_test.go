package storage

import (
	"bufio"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// crashChildEnv names the environment variable that turns the test binary
// into the crash-test helper process (see TestCrashRecoveryKill9).
const crashChildEnv = "LRFCSVM_JOURNAL_CRASH_PATH"

// TestJournalCrashChild is not a test: it is the helper process the kill -9
// crash-recovery test murders mid-append. It opens the journal named by the
// environment, appends deterministic feedback sessions with per-record
// fsync, and acknowledges each durable record on stdout; it loops until the
// parent kills it.
func TestJournalCrashChild(t *testing.T) {
	path := os.Getenv(crashChildEnv)
	if path == "" {
		t.Skip("helper process for TestCrashRecoveryKill9")
	}
	visual, fblog := journalBase(8, 3)
	j, _, _, err := OpenJournal(path, visual, fblog, JournalOptions{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for i := 0; time.Now().Before(deadline); i++ {
		if err := j.AppendSession(journalSession(i, 8)); err != nil {
			t.Fatal(err)
		}
		// The record is fsynced; acknowledge it the way a server would
		// acknowledge a commit. fmt to os.Stdout is unbuffered, so the
		// parent sees every ack the moment it is durable.
		fmt.Printf("ACK %d\n", i)
	}
	t.Fatal("parent never killed the helper")
}

// TestCrashRecoveryKill9 proves the journal's whole reason to exist: a
// process killed with SIGKILL mid-append (no deferred cleanup, no signal
// handler, exactly like an OOM kill) loses nothing it acknowledged. The
// helper child appends sessions with per-record fsync and acks each one;
// the parent kills it after a couple dozen acks and replays the journal:
// every acknowledged record must be recovered intact and in order, and the
// journal must come back appendable.
func TestCrashRecoveryKill9(t *testing.T) {
	if os.Getenv(crashChildEnv) != "" {
		t.Skip("already inside the helper process")
	}
	path := filepath.Join(t.TempDir(), "crash.wal")
	cmd := exec.Command(os.Args[0], "-test.run=TestJournalCrashChild$")
	cmd.Env = append(os.Environ(), crashChildEnv+"="+path)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	const wantAcked = 24
	acked := -1
	scanner := bufio.NewScanner(stdout)
	for scanner.Scan() {
		var n int
		if _, err := fmt.Sscanf(strings.TrimSpace(scanner.Text()), "ACK %d", &n); err == nil {
			acked = n
			if acked+1 >= wantAcked {
				break
			}
		}
	}
	// kill -9: no signal handler runs, no Close, no final sync.
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = cmd.Wait()
	if acked+1 < wantAcked {
		t.Fatalf("helper died after only %d acks", acked+1)
	}

	visual, fblog := journalBase(8, 3)
	j, _, replay, err := OpenJournal(path, visual, fblog, JournalOptions{Fsync: FsyncOff})
	if err != nil {
		t.Fatalf("replay after kill -9: %v", err)
	}
	// Every acknowledged record survived; the child may have gotten further
	// (records appended between the last read ack and the kill), and the
	// very last record may have been torn — but never an acked one.
	if replay.Sessions <= acked {
		t.Fatalf("replayed %d sessions, %d were acknowledged before the kill", replay.Sessions, acked+1)
	}
	for i, got := range fblog.Sessions() {
		if want := journalSession(i, 8); got.QueryImage != want.QueryImage || got.TargetCategory != want.TargetCategory || !maps.Equal(got.Judgments, want.Judgments) {
			t.Fatalf("recovered session %d differs: %+v", i, got)
		}
	}
	// The repaired journal keeps working.
	next := fblog.NumSessions()
	if err := j.AppendSession(journalSession(next, 8)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	reVisual, reLog := journalBase(8, 3)
	if _, _, rb, err := OpenJournal(path, reVisual, reLog, JournalOptions{}); err != nil || rb.Sessions != next+1 {
		t.Fatalf("reopen after repair: %v (replay %+v)", err, rb)
	}
}
