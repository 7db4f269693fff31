package cli

import (
	"errors"
	"flag"
	"io"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func conflictSet(t *testing.T, args ...string) *flag.FlagSet {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.String("workload-file", "", "")
	fs.Bool("suite-dedup", false, "")
	fs.String("w", "", "")
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestFlagConflicts(t *testing.T) {
	pair := [2]string{"workload-file", "suite-dedup"}

	// Both set: one clear error naming both flags.
	fs := conflictSet(t, "-workload-file", "doc.json", "-suite-dedup")
	err := FlagConflicts(fs, pair)
	if err == nil {
		t.Fatal("conflicting flags accepted")
	}
	if !strings.Contains(err.Error(), "-workload-file") || !strings.Contains(err.Error(), "-suite-dedup") {
		t.Errorf("error %q does not name both flags", err)
	}

	// Either alone is fine, as is neither; a set flag at its default value
	// still counts as set (the user typed it).
	for _, args := range [][]string{
		{"-workload-file", "doc.json"},
		{"-suite-dedup"},
		{"-w", "Rodinia/gauss_208"},
		{},
	} {
		fs := conflictSet(t, args...)
		if err := FlagConflicts(fs, pair); err != nil {
			t.Errorf("args %v: unexpected conflict: %v", args, err)
		}
	}

	// Multiple pairs: the first conflicting pair wins.
	fs = conflictSet(t, "-workload-file", "x", "-suite-dedup", "-w", "a/b")
	err = FlagConflicts(fs, [2]string{"w", "workload-file"}, pair)
	if err == nil || !strings.Contains(err.Error(), "-w") {
		t.Errorf("expected the first pair's error, got %v", err)
	}
}

func TestParseWeights(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want map[string]int // nil: an error
	}{
		{"", map[string]int{}},
		{"prod=3, batch=1", map[string]int{"prod": 3, "batch": 1}},
		{"prod= 3 ", map[string]int{"prod": 3}},
		{"prod=3x", nil},
		{"prod=3.5", nil},
		{"prod=0", nil},
		{"prod=-1", nil},
		{"prod", nil},
		{"=3", nil},
		{"prod=3,batch", nil},
	} {
		got, err := ParseWeights(tc.in)
		switch {
		case tc.want == nil && err == nil:
			t.Errorf("%q: accepted as %v", tc.in, got)
		case tc.want != nil && err != nil:
			t.Errorf("%q: %v", tc.in, err)
		case tc.want != nil && !maps.Equal(got, tc.want):
			t.Errorf("%q: got %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestWriteFileCreatesAtFirstWrite: WriteFile creates its file when render
// first writes, so a render refused before writing leaves an existing file
// byte-identical and creates nothing where no file was; a render that
// succeeds without writing still leaves an empty file, and a path whose
// directory is missing is an error.
func TestWriteFileCreatesAtFirstWrite(t *testing.T) {
	dir := t.TempDir()
	refuse := errors.New("refused")
	refused := func(io.Writer) error { return refuse }

	kept := filepath.Join(dir, "kept.txt")
	if err := os.WriteFile(kept, []byte("earlier data\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(kept, refused); err != refuse {
		t.Fatalf("WriteFile = %v, want the render's %v", err, refuse)
	}
	if got, err := os.ReadFile(kept); err != nil || string(got) != "earlier data\n" {
		t.Errorf("refused render left %q (%v), want the earlier contents", got, err)
	}

	absent := filepath.Join(dir, "absent.txt")
	if err := WriteFile(absent, refused); err != refuse {
		t.Fatalf("WriteFile = %v, want the render's %v", err, refuse)
	}
	if _, err := os.Stat(absent); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("refused render created %s (stat: %v)", absent, err)
	}

	empty := filepath.Join(dir, "empty.txt")
	if err := os.WriteFile(empty, []byte("stale"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(empty, func(io.Writer) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(empty); err != nil || len(got) != 0 {
		t.Errorf("silent render left %q (%v), want an empty file", got, err)
	}

	written := filepath.Join(dir, "written.txt")
	if err := WriteFile(written, func(w io.Writer) error {
		_, err := io.WriteString(w, "a")
		if err == nil {
			_, err = io.WriteString(w, "b")
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(written); err != nil || string(got) != "ab" {
		t.Errorf("render left %q (%v), want \"ab\"", got, err)
	}

	if err := WriteFile(filepath.Join(dir, "missing", "f.txt"), func(w io.Writer) error {
		_, err := io.WriteString(w, "x")
		return err
	}); err == nil {
		t.Error("WriteFile into a missing directory reported no error")
	}
}
