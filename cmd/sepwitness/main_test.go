package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cas"
	"repro/internal/model"
	"repro/internal/separability"
	"repro/internal/verifysys"
	"repro/internal/witness"
)

// captureDir populates a witness store from a RegisterLeak run and returns
// its path.
func captureDir(t *testing.T) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "w")
	spec := verifysys.SpecFor("RegisterLeak", true, false)
	sys, err := verifysys.FromSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	opt := separability.Options{Trials: 10, StepsPerTrial: 100, Seed: 99}
	res := separability.CheckRandomized(sys, opt)
	if res.Passed() {
		t.Fatal("leak not caught; no witnesses to test the CLI on")
	}
	if _, err := witness.Capture(sys, opt, res, witness.Options{Dir: dir, System: spec}); err != nil {
		t.Fatal(err)
	}
	return dir
}

func run(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := realMain(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestCLIListShowReplayDiff(t *testing.T) {
	dir := captureDir(t)

	code, out, _ := run(t, "-dir", dir, "list")
	if code != 0 || !strings.Contains(out, "condition") {
		t.Fatalf("list: code=%d out=%q", code, out)
	}
	id := strings.Fields(out)[0]

	code, out, _ = run(t, "-dir", dir, "show", id)
	if code != 0 || !strings.Contains(out, `"checkSeed"`) {
		t.Fatalf("show: code=%d out=%q", code, out)
	}

	code, out, _ = run(t, "-dir", dir, "-require-shrink", "replay")
	if code != 0 {
		t.Fatalf("replay: code=%d out=%q", code, out)
	}
	if !strings.Contains(out, "ok   "+id) {
		t.Errorf("replay output missing witness %s:\n%s", id, out)
	}

	// The retired -notranslate flag is rejected as a usage error.
	if code, _, _ = run(t, "-dir", dir, "-notranslate", "replay", id); code != 2 {
		t.Errorf("replay -notranslate: code=%d, want 2", code)
	}

	// A store diffed against itself agrees; against an empty store it
	// differs with exit 1.
	if code, _, _ = run(t, "-dir", dir, "diff", dir); code != 0 {
		t.Errorf("self-diff: code=%d", code)
	}
	if code, _, _ = run(t, "-dir", dir, "diff", t.TempDir()); code != 1 {
		t.Errorf("diff vs empty store: code=%d, want 1", code)
	}
}

// TestCLIStaleDigestVersion runs the CLI over a store rewritten to the
// shape written before the Φ digest was versioned (no digestVersion
// field): list and show still work, and replay fails, exit 1, asking for
// a re-capture.
func TestCLIStaleDigestVersion(t *testing.T) {
	dir := captureDir(t)
	ws, err := witness.Load(dir)
	if err != nil || len(ws) == 0 {
		t.Fatalf("load: %d witnesses, err=%v", len(ws), err)
	}
	var manifest []byte
	for _, w := range ws {
		w.DigestVersion, w.ID = 0, ""
		if w.ID, err = cas.ContentID(w); err != nil {
			t.Fatal(err)
		}
		line, err := json.Marshal(w)
		if err != nil {
			t.Fatal(err)
		}
		manifest = append(append(manifest, line...), '\n')
	}
	if err := os.WriteFile(filepath.Join(dir, "manifest.jsonl"), manifest, 0o644); err != nil {
		t.Fatal(err)
	}
	id := ws[0].ID

	if code, out, _ := run(t, "-dir", dir, "list"); code != 0 || !strings.Contains(out, id) {
		t.Fatalf("list: code=%d out=%q", code, out)
	}
	if code, out, _ := run(t, "-dir", dir, "show", id); code != 0 || strings.Contains(out, "digestVersion") {
		t.Fatalf("show: code=%d out=%q", code, out)
	}
	code, out, _ := run(t, "-dir", dir, "replay", id)
	want := fmt.Sprintf("captured under Φ digest version 0, this build uses %d: re-capture", model.DigestVersion)
	if code != 1 || !strings.Contains(out, "FAIL "+id) || !strings.Contains(out, want) {
		t.Fatalf("replay: code=%d out=%q, want exit 1 and %q", code, out, want)
	}
}

func TestCLIErrors(t *testing.T) {
	if code, _, _ := run(t); code != 2 {
		t.Errorf("no command: code=%d, want 2", code)
	}
	if code, _, _ := run(t, "-dir", t.TempDir(), "frobnicate"); code != 2 {
		t.Errorf("unknown command: code=%d, want 2", code)
	}
	if code, _, _ := run(t, "-dir", t.TempDir(), "replay", "deadbeef"); code != 2 {
		t.Errorf("unknown ID: code=%d, want 2", code)
	}
	// An empty store replays nothing — that is a failure, not a silent pass.
	if code, _, _ := run(t, "-dir", t.TempDir(), "replay"); code != 1 {
		t.Errorf("empty replay: code=%d, want 1", code)
	}
}

// A manifest whose final line a crash cut short still lists and replays;
// the skipped line is noted on stderr, not reported as tampering.
func TestCLITornManifest(t *testing.T) {
	dir := captureDir(t)
	mp := filepath.Join(dir, "manifest.jsonl")
	b, err := os.ReadFile(mp)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(mp, b[:len(b)-40], 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errs := run(t, "-dir", dir, "replay")
	if code != 0 || !strings.Contains(out, "ok   ") || !strings.Contains(errs, "torn final line") {
		t.Fatalf("replay of a torn store: code=%d\n%s\nstderr:\n%s", code, out, errs)
	}
}
