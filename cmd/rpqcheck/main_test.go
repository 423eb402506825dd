package main

import (
	"errors"
	"io"
	"os"
	"testing"
)

// failWriter fails every write, like a full disk or a closed pipe.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("write failed") }

const fixture = "../../testdata/goprog/uninit/"

// TestRunReportWriteErrors checks that a report rpqcheck cannot write is a
// failure (exit 2), not a run that merely found something (exit 1).
func TestRunReportWriteErrors(t *testing.T) {
	for _, args := range [][]string{
		{fixture},
		{"-json", fixture},
	} {
		if code := run(args, failWriter{}, io.Discard); code != 2 {
			t.Errorf("rpqcheck %v to a failing stdout: exit %d, want 2", args, code)
		}
	}
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full")
	}
	for _, args := range [][]string{
		{"-out", "/dev/full", fixture},
		{"-json", "-out", "/dev/full", fixture},
	} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("rpqcheck %v: exit %d, want 2", args, code)
		}
	}
}

// TestRunFindingsExitOne pins the exit status the write-error cases must
// differ from: the uninit fixture's seeded finding, written fine, exits 1.
func TestRunFindingsExitOne(t *testing.T) {
	if code := run([]string{fixture}, io.Discard, io.Discard); code != 1 {
		t.Errorf("exit %d, want 1", code)
	}
}
