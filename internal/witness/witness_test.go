package witness_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cas"
	"repro/internal/kernel"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/separability"
	"repro/internal/verifysys"
	"repro/internal/witness"
)

// leakOpt is the check budget TestLeakyKernelsCaught uses; every planted
// leak is caught under it, so captures always have material to work with.
func leakOpt(sched bool) separability.Options {
	return separability.Options{Trials: 10, StepsPerTrial: 100, Seed: 99,
		CheckScheduling: sched}
}

func buildSpec(t testing.TB, spec witness.SystemSpec) *kernel.Adapter {
	t.Helper()
	sys, err := verifysys.FromSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// The full pipeline on a planted leak: check, capture, shrink, persist,
// then replay every witness from the artifact alone on a freshly built
// system and demand the identical condition, colour and digest pair.
func TestCaptureShrinkReplayFromDisk(t *testing.T) {
	for _, leak := range []string{"RegisterLeak", "SharedScratch"} {
		t.Run(leak, func(t *testing.T) {
			spec := verifysys.SpecFor(leak, true, false)
			sys := buildSpec(t, spec)
			opt := leakOpt(false)
			res := separability.CheckRandomized(sys, opt)
			if res.Passed() {
				t.Fatalf("leak %s not caught; nothing to capture", leak)
			}

			dir := t.TempDir()
			reg := obs.NewRegistry()
			ws, err := witness.Capture(sys, opt, res, witness.Options{
				Dir: dir, Metrics: reg, System: spec})
			if err != nil {
				t.Fatal(err)
			}
			if len(ws) == 0 {
				t.Fatal("no witnesses captured")
			}
			if got := reg.CounterValue("sep_witness_captured_total"); got != uint64(len(ws)) {
				t.Errorf("captured counter = %d, want %d", got, len(ws))
			}
			if reg.CounterValue("sep_witness_replayed_total") == 0 {
				t.Error("no replays counted during capture")
			}

			anyShrunk := false
			for _, w := range ws {
				if len(w.Steps) > w.OrigSteps {
					t.Errorf("witness %s grew: %d > %d", w.ID, len(w.Steps), w.OrigSteps)
				}
				if len(w.Steps) < w.OrigSteps {
					anyShrunk = true
				}
				if w.Want == w.Got {
					t.Errorf("witness %s: want and got digests equal (%s)", w.ID, w.Want)
				}
				if len(w.Events) == 0 {
					t.Errorf("witness %s: no event window", w.ID)
				}
			}
			if !anyShrunk {
				t.Error("shrinker dropped nothing on any witness")
			}
			if reg.CounterValue("sep_witness_shrunk_ops_total") == 0 && anyShrunk {
				t.Error("shrunk ops counter stayed zero")
			}

			// From disk, against a fresh system.
			loaded, err := witness.Load(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(loaded) != len(ws) {
				t.Fatalf("loaded %d witnesses, captured %d", len(loaded), len(ws))
			}
			for i, w := range loaded {
				if w.ID != ws[i].ID {
					t.Errorf("witness %d: ID %s loaded as %s", i, ws[i].ID, w.ID)
				}
				if err := w.LoadState(dir); err != nil {
					t.Fatal(err)
				}
				fresh := buildSpec(t, w.System)
				v, err := witness.Replay(fresh, w)
				if err != nil {
					t.Fatalf("witness %s failed to replay: %v", w.ID, err)
				}
				if int(v.Condition) != w.Condition || string(v.Colour) != w.Colour {
					t.Errorf("witness %s replayed to %s/%s, recorded %s/%s",
						w.ID, v.Condition, v.Colour, w.ConditionName, w.Colour)
				}
			}
		})
	}
}

// Witnesses are a pure function of the checker's Result, which is itself
// worker-count independent — so capture at workers=1 and workers=4 must
// produce identical artifacts (same IDs, same shrunk sequences).
func TestCaptureWorkerCountInvariant(t *testing.T) {
	spec := verifysys.SpecFor("RegisterLeak", true, false)
	capture := func(workers int) []*witness.Witness {
		sys := buildSpec(t, spec)
		opt := leakOpt(false)
		opt.Workers = workers
		res := separability.CheckRandomized(sys, opt)
		if res.Passed() {
			t.Fatalf("workers=%d: leak not caught", workers)
		}
		ws, err := witness.Capture(sys, opt, res, witness.Options{System: spec})
		if err != nil {
			t.Fatal(err)
		}
		return ws
	}
	w1, w4 := capture(1), capture(4)
	if len(w1) == 0 || len(w1) != len(w4) {
		t.Fatalf("captured %d vs %d witnesses", len(w1), len(w4))
	}
	for i := range w1 {
		if w1[i].ID != w4[i].ID {
			t.Errorf("witness %d: workers=1 ID %s, workers=4 ID %s", i, w1[i].ID, w4[i].ID)
		}
		if w1[i].Want != w4[i].Want || w1[i].Got != w4[i].Got {
			t.Errorf("witness %d: digest pair diverged across worker counts", i)
		}
		if len(w1[i].Steps) != len(w4[i].Steps) {
			t.Errorf("witness %d: shrunk lengths diverged: %d vs %d",
				i, len(w1[i].Steps), len(w4[i].Steps))
		}
	}
}

// Compatibility: records written when the SM11 still had an optional
// translation cache may carry noTranslate:true in their system spec. The
// field is part of the record's content ID, so such a record must still
// load, pass its ID check and replay on today's single-interpreter
// machine, which ignores the field.
func TestRetiredNoTranslateRecordReplays(t *testing.T) {
	spec := verifysys.SpecFor("SharedScratch", true, false)
	sys := buildSpec(t, spec)
	opt := leakOpt(false)
	res := separability.CheckRandomized(sys, opt)
	if res.Passed() {
		t.Fatal("leak not caught")
	}
	dir := t.TempDir()
	captured, err := witness.Capture(sys, opt, res, witness.Options{Dir: dir, System: spec})
	if err != nil || len(captured) == 0 {
		t.Fatalf("capture: %d witnesses, err=%v", len(captured), err)
	}

	// Rewrite the manifest as an older build would have written it.
	var manifest []byte
	for _, w := range captured {
		old := *w
		old.System.NoTranslate = true
		old.ID = ""
		id, err := cas.ContentID(&old)
		if err != nil {
			t.Fatal(err)
		}
		if id == w.ID {
			t.Fatalf("witness %s: noTranslate does not change the content ID", w.ID)
		}
		old.ID = id
		line, err := json.Marshal(&old)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(line), `"noTranslate":true`) {
			t.Fatalf("rewritten record lacks noTranslate:true: %s", line)
		}
		manifest = append(append(manifest, line...), '\n')
	}
	if err := os.WriteFile(filepath.Join(dir, "manifest.jsonl"), manifest, 0o644); err != nil {
		t.Fatal(err)
	}

	loaded, err := witness.Load(dir)
	if err != nil || len(loaded) != len(captured) {
		t.Fatalf("load: %d of %d witnesses, err=%v", len(loaded), len(captured), err)
	}
	for _, w := range loaded {
		if !w.System.NoTranslate {
			t.Errorf("witness %s lost its noTranslate field on load", w.ID)
		}
		if err := w.LoadState(dir); err != nil {
			t.Fatal(err)
		}
		if _, err := witness.Replay(buildSpec(t, w.System), w); err != nil {
			t.Errorf("witness %s with noTranslate:true does not replay: %v", w.ID, err)
		}
	}
}

// A record captured before the Φ digest was versioned has no
// digestVersion field. It must still load and pass its ID check, so that
// list and show work on it, but replay must refuse it up front and ask
// for a re-capture rather than report a digest mismatch.
func TestStaleDigestVersionAsksForRecapture(t *testing.T) {
	spec := verifysys.SpecFor("SharedScratch", true, false)
	sys := buildSpec(t, spec)
	opt := leakOpt(false)
	res := separability.CheckRandomized(sys, opt)
	if res.Passed() {
		t.Fatal("leak not caught")
	}
	dir := t.TempDir()
	captured, err := witness.Capture(sys, opt, res, witness.Options{Dir: dir, System: spec})
	if err != nil || len(captured) == 0 {
		t.Fatalf("capture: %d witnesses, err=%v", len(captured), err)
	}

	// Rewrite the manifest in the shape an unversioned build wrote.
	var manifest []byte
	for _, w := range captured {
		if w.DigestVersion != model.DigestVersion {
			t.Fatalf("witness %s stamped with digest version %d, want %d", w.ID, w.DigestVersion, model.DigestVersion)
		}
		old := *w
		old.DigestVersion, old.ID = 0, ""
		id, err := cas.ContentID(&old)
		if err != nil {
			t.Fatal(err)
		}
		old.ID = id
		line, err := json.Marshal(&old)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(line), "digestVersion") {
			t.Fatalf("rewritten record still names a digest version: %s", line)
		}
		manifest = append(append(manifest, line...), '\n')
	}
	if err := os.WriteFile(filepath.Join(dir, "manifest.jsonl"), manifest, 0o644); err != nil {
		t.Fatal(err)
	}

	loaded, err := witness.Load(dir)
	if err != nil || len(loaded) != len(captured) {
		t.Fatalf("load: %d of %d witnesses, err=%v", len(loaded), len(captured), err)
	}
	want := fmt.Sprintf("captured under Φ digest version 0, this build uses %d: re-capture", model.DigestVersion)
	for _, w := range loaded {
		if err := w.LoadState(dir); err != nil {
			t.Fatal(err)
		}
		_, err := witness.Replay(buildSpec(t, w.System), w)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("witness %s: replay error %v, want one containing %q", w.ID, err, want)
		}
	}
}

// The differential the acceptance criteria demand: capture is cold-side
// only. Running Capture must not change what a subsequent identical check
// reports, and the captured-from Result is never mutated.
func TestCaptureIsColdSide(t *testing.T) {
	spec := verifysys.SpecFor("RegisterLeak", true, false)
	opt := leakOpt(false)

	ref := separability.CheckRandomized(buildSpec(t, spec), opt)

	sys := buildSpec(t, spec)
	res1 := separability.CheckRandomized(sys, opt)
	before := len(res1.Violations)
	if _, err := witness.Capture(sys, opt, res1, witness.Options{System: spec}); err != nil {
		t.Fatal(err)
	}
	if len(res1.Violations) != before {
		t.Error("Capture mutated the Result it was given")
	}
	res2 := separability.CheckRandomized(sys, opt)

	if !reflect.DeepEqual(ref.Violations, res1.Violations) ||
		!reflect.DeepEqual(res1.Violations, res2.Violations) {
		t.Error("violation lists differ across capture-on/capture-off runs")
	}
	if !reflect.DeepEqual(ref.Checks, res2.Checks) {
		t.Errorf("check counts differ: %v vs %v", ref.Checks, res2.Checks)
	}
}

// Persisting the same witnesses twice must not duplicate manifest lines or
// blobs (content addressing makes capture idempotent).
func TestStoreIdempotent(t *testing.T) {
	spec := verifysys.SpecFor("RegisterLeak", true, false)
	sys := buildSpec(t, spec)
	opt := leakOpt(false)
	res := separability.CheckRandomized(sys, opt)
	dir := t.TempDir()
	wopt := witness.Options{Dir: dir, System: spec, MaxWitnesses: 2}
	ws1, err := witness.Capture(sys, opt, res, wopt)
	if err != nil {
		t.Fatal(err)
	}
	ws2, err := witness.Capture(sys, opt, res, wopt)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws1) != len(ws2) {
		t.Fatalf("second capture found %d witnesses, first %d", len(ws2), len(ws1))
	}
	loaded, err := witness.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != len(ws1) {
		t.Errorf("manifest holds %d records after double capture, want %d", len(loaded), len(ws1))
	}
}

// A tampered manifest or blob must be rejected, not replayed.
func TestStoreRejectsTampering(t *testing.T) {
	spec := verifysys.SpecFor("RegisterLeak", true, false)
	sys := buildSpec(t, spec)
	opt := leakOpt(false)
	res := separability.CheckRandomized(sys, opt)
	dir := t.TempDir()
	ws, err := witness.Capture(sys, opt, res, witness.Options{
		Dir: dir, System: spec, MaxWitnesses: 1})
	if err != nil || len(ws) == 0 {
		t.Fatalf("capture: %d witnesses, err=%v", len(ws), err)
	}

	mp := filepath.Join(dir, "manifest.jsonl")
	orig, err := os.ReadFile(mp)
	if err != nil {
		t.Fatal(err)
	}
	// Flip the recorded colour: the ID no longer matches the content.
	tampered := strings.Replace(string(orig), `"colour":"`, `"colour":"x`, 1)
	if tampered == string(orig) {
		t.Fatal("tampering had no effect; test is vacuous")
	}
	if err := os.WriteFile(mp, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := witness.Load(dir); err == nil {
		t.Error("tampered manifest loaded without error")
	}
	if err := os.WriteFile(mp, orig, 0o644); err != nil {
		t.Fatal(err)
	}

	// Corrupt the blob: LoadState must catch the hash mismatch.
	bp := filepath.Join(dir, "blobs", ws[0].Snapshot)
	blob, err := os.ReadFile(bp)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)-1] ^= 0xFF
	if err := os.WriteFile(bp, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := witness.Load(dir)
	if err != nil || len(loaded) == 0 {
		t.Fatalf("load after restore: %v", err)
	}
	if err := loaded[0].LoadState(dir); err == nil {
		t.Error("corrupt blob loaded without error")
	}
}

// A capture killed mid-append leaves a torn final manifest line. Loading
// must skip it as crash damage, not reject the store as tampered, and the
// next capture into the directory must truncate it and succeed.
func TestStoreRecoversTornManifest(t *testing.T) {
	spec := verifysys.SpecFor("RegisterLeak", true, false)
	sys := buildSpec(t, spec)
	opt := leakOpt(false)
	res := separability.CheckRandomized(sys, opt)
	dir := t.TempDir()
	wopt := witness.Options{Dir: dir, System: spec, MaxWitnesses: 2}
	ws, err := witness.Capture(sys, opt, res, wopt)
	if err != nil || len(ws) != 2 {
		t.Fatalf("capture: %d witnesses, err=%v", len(ws), err)
	}
	mp := filepath.Join(dir, "manifest.jsonl")
	b, err := os.ReadFile(mp)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(mp, b[:len(b)-40], 0o644); err != nil {
		t.Fatal(err)
	}

	loaded, tail, err := witness.LoadTail(dir)
	if err != nil || len(loaded) != 1 || loaded[0].ID != ws[0].ID {
		t.Fatalf("torn manifest: %d witnesses, err=%v", len(loaded), err)
	}
	if want := len(b) - 40 - int(tail.Committed); tail.Dropped != want || want <= 0 {
		t.Fatalf("tail %+v, want %d dropped bytes", tail, want)
	}

	if _, err := witness.Capture(sys, opt, res, wopt); err != nil {
		t.Fatalf("re-capture into a torn store: %v", err)
	}
	after, err := os.ReadFile(mp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, b) {
		t.Errorf("re-capture did not restore the manifest byte for byte")
	}
}
