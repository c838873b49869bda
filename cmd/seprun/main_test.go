package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

var update = flag.Bool("update", false, "regenerate the golden files")

func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func golden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run go test ./cmd/seprun -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s: output differs from golden\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

// The built-in demo is deterministic: the banner, the first instructions,
// the exit report and the kernel counters are pinned byte for byte.
func TestDemoGolden(t *testing.T) {
	code, out, errs := runCLI(t, "-steps", "5000", "-itrace", "5", "-metrics")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errs)
	}
	golden(t, "demo", out)
	if !strings.Contains(out, "kernel_swaps_total") {
		t.Error("-metrics printed no kernel counters")
	}
	if strings.Contains(out, "sep_tc_") {
		t.Error("-metrics still prints translation-cache counters")
	}
}

// With -trace - the JSONL event stream owns stdout and the report moves
// to stderr, so the stream parses on its own.
func TestTraceToStdout(t *testing.T) {
	code, out, errs := runCLI(t, "-steps", "5000", "-trace", "-")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errs)
	}
	events, err := obs.ReadJSONL(strings.NewReader(out))
	if err != nil {
		t.Fatalf("stdout is not a JSONL trace: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("empty trace")
	}
	if !strings.Contains(errs, "ran 5000 cycles") || !strings.Contains(errs, "trace written to -") {
		t.Errorf("report missing from stderr:\n%s", errs)
	}
}

func TestUsageErrors(t *testing.T) {
	prog := filepath.Join(t.TempDir(), "r.s")
	if err := os.WriteFile(prog, []byte(demoReceiver), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"malformed -chan", []string{"-chan", "x:y", prog, prog}},
		{"-chan to a missing regime", []string{"-chan", "0:5", prog, prog}},
		{"retired -notranslate", []string{"-notranslate"}},
		{"unknown -trace-format", []string{"-steps", "10", "-trace", "-", "-trace-format", "xml"}},
		{"missing program file", []string{filepath.Join(t.TempDir(), "absent.s")}},
	} {
		if code, _, errs := runCLI(t, tc.args...); code == 0 {
			t.Errorf("%s: exit 0, want non-zero (stderr %q)", tc.name, errs)
		}
	}
}
