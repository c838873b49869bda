package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
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
		t.Fatalf("missing golden (run go test ./cmd/sepverify -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s: output differs from golden\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

// The sweep over the honest kernel and every planted leak is pinned byte
// for byte: verdicts, violation counts and the first counterexample of
// each condition. Any change to exploration, checking or Φ rendering
// shows here.
func TestGoldenAll(t *testing.T) {
	code, out, errs := runCLI(t, "-all", "-seed", "7", "-workers", "2")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errs)
	}
	golden(t, "all_seed7", out)
}

// The exhaustive suite is pinned too; its MiniSUE secure line carries the
// 1252032 condition-instance count EXPERIMENTS.md documents.
func TestGoldenExhaustive(t *testing.T) {
	code, out, errs := runCLI(t, "-exhaustive")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errs)
	}
	golden(t, "exhaustive", out)
}

// A sharded sweep written to shard files and merged back prints the same
// verdict line as the unsharded run of the same target.
func TestShardMergeRoundTrip(t *testing.T) {
	const target = "toy:covert-store"
	code, direct, errs := runCLI(t, "-exhaustive", "-target", target)
	if code != 0 {
		t.Fatalf("direct run: exit %d, stderr %q", code, errs)
	}
	dir := t.TempDir()
	var files []string
	for _, k := range []string{"0", "1"} {
		f := filepath.Join(dir, "shard-"+k+".json")
		code, out, errs := runCLI(t, "-exhaustive", "-target", target, "-shard", k+"/2", "-shard-out", f)
		if code != 0 {
			t.Fatalf("shard %s/2: exit %d, stderr %q", k, code, errs)
		}
		if !strings.Contains(out, "shard "+k+"/2") {
			t.Errorf("shard %s/2 output %q does not name its shard", k, out)
		}
		files = append(files, f)
	}
	code, merged, errs := runCLI(t, append([]string{"-merge"}, files...)...)
	if code != 0 {
		t.Fatalf("merge: exit %d, stderr %q", code, errs)
	}
	if merged != direct {
		t.Errorf("merged verdict differs from the direct run:\n merged: %s direct: %s", merged, direct)
	}
	if !strings.Contains(merged, "[as expected]") {
		t.Errorf("merged verdict %q is not as expected", merged)
	}

	// An incomplete shard set does not merge.
	if code, _, _ := runCLI(t, "-merge", files[0]); code != 2 {
		t.Errorf("merge of one shard of two: exit %d, want 2", code)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
	}{
		{"bad flag", []string{"-frobnicate"}},
		{"retired -notranslate", []string{"-notranslate"}},
		{"unknown leak", []string{"-leak", "NoSuchLeak"}},
		{"bad metrics format", []string{"-metrics", "-metrics-format", "xml"}},
		{"target without exhaustive", []string{"-target", "toy:secure"}},
		{"shard without target", []string{"-exhaustive", "-shard", "0/2"}},
		{"bad shard spec", []string{"-exhaustive", "-target", "toy:secure", "-shard", "2/2"}},
		{"unknown target", []string{"-exhaustive", "-target", "toy:nope"}},
		{"merge without files", []string{"-merge"}},
		{"pprof without listen", []string{"-pprof"}},
	} {
		code, out, _ := runCLI(t, c.args...)
		if code != 2 {
			t.Errorf("%s: exit %d, want 2 (stdout %q)", c.name, code, out)
		}
	}
	if code, out, _ := runCLI(t, "-list"); code != 0 || !strings.Contains(out, "RegisterLeak\n") {
		t.Errorf("-list: exit %d, output %q", code, out)
	}
}

// -witness-dir into a store whose manifest a killed run left torn: the
// capture notes the skipped line on stderr, truncates it and succeeds.
func TestWitnessDirRecoversTornManifest(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-leak", "RegisterLeak", "-seed", "99", "-witness-dir", dir}
	if code, _, errs := runCLI(t, args...); code != 0 {
		t.Fatalf("first capture: exit %d\n%s", code, errs)
	}
	mp := filepath.Join(dir, "RegisterLeak", "manifest.jsonl")
	b, err := os.ReadFile(mp)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(mp, b[:len(b)-40], 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errs := runCLI(t, args...)
	if code != 0 || !strings.Contains(out, "witnesses:") || !strings.Contains(errs, "torn final line") {
		t.Fatalf("re-capture into a torn store: exit %d\n%s\nstderr:\n%s", code, out, errs)
	}
	if after, err := os.ReadFile(mp); err != nil || !bytes.Equal(after, b) {
		t.Errorf("re-capture did not restore the manifest byte for byte (%v)", err)
	}
}
