package faultinject

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func tempFile(t *testing.T) *os.File {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "f"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func TestPlanFailsNamedWrite(t *testing.T) {
	in := New(Plan{FailWrites: []int{2}})
	f := in.Wrap(tempFile(t))
	if _, err := f.Write([]byte("ok")); err != nil {
		t.Fatalf("write 1: %v", err)
	}
	if _, err := f.Write([]byte("boom")); !errors.Is(err, ErrInjected) {
		t.Fatalf("write 2 error = %v, want ErrInjected", err)
	}
	if _, err := f.Write([]byte("ok again")); err != nil {
		t.Fatalf("write 3: %v", err)
	}
	st := in.Stats()
	if st.Writes != 3 || st.Injected != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTornWriteLeavesPrefix(t *testing.T) {
	in := New(Plan{TornWrites: map[int]int{1: 3}})
	f := in.Wrap(tempFile(t))
	n, err := f.WriteAt([]byte("abcdef"), 0)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("error = %v, want ErrInjected", err)
	}
	if n != 3 {
		t.Fatalf("n = %d, want the 3 torn bytes", n)
	}
	info, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != 3 {
		t.Fatalf("file size = %d, want exactly the torn prefix", info.Size())
	}
}

func TestSyncFailureWindow(t *testing.T) {
	in := New(Plan{FailSyncFrom: 2, FailSyncCount: 2})
	f := in.Wrap(tempFile(t))
	for i, wantErr := range []bool{false, true, true, false} {
		err := f.Sync()
		if gotErr := errors.Is(err, ErrInjected); gotErr != wantErr {
			t.Fatalf("sync %d error = %v, want injected=%v", i+1, err, wantErr)
		}
	}
}

func TestTruncateFaultSuppressesTruncate(t *testing.T) {
	in := New(Plan{FailTruncates: []int{1}})
	f := in.Wrap(tempFile(t))
	if _, err := f.Write([]byte("abcdef")); err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(0); !errors.Is(err, ErrInjected) {
		t.Fatalf("truncate error = %v, want ErrInjected", err)
	}
	if info, _ := f.Stat(); info.Size() != 6 {
		t.Fatalf("size = %d; the injected truncate must not have run", info.Size())
	}
	if err := f.Truncate(0); err != nil {
		t.Fatalf("truncate 2: %v", err)
	}
	if info, _ := f.Stat(); info.Size() != 0 {
		t.Fatal("real truncate after the fault window did not run")
	}
}

func TestSetPlanResetsCounters(t *testing.T) {
	in := New(Plan{FailWrites: []int{1}})
	f := in.Wrap(tempFile(t))
	if _, err := f.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatal("armed fault did not fire")
	}
	in.SetPlan(Plan{FailWrites: []int{2}})
	if _, err := f.Write([]byte("x")); err != nil {
		t.Fatalf("write 1 after reset: %v", err)
	}
	if _, err := f.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatal("re-armed fault did not fire at the reset index")
	}
}
