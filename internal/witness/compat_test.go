package witness

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// testdata/compat holds a store written before the witness store moved onto
// internal/cas: one RegisterLeak witness (seed 99) and its snapshot blob.
// Loading it and writing it into a fresh store must reproduce its ID and
// every byte of the manifest and the blob.
func TestCompatFixtureRoundTrips(t *testing.T) {
	src := filepath.Join("testdata", "compat")
	ws, err := Load(src)
	if err != nil || len(ws) != 1 {
		t.Fatalf("load: %d witnesses, err=%v", len(ws), err)
	}
	w := ws[0]
	if err := w.LoadState(src); err != nil {
		t.Fatal(err)
	}
	if id, err := computeID(w); err != nil || id != w.ID {
		t.Fatalf("recomputed ID %q, recorded %q (%v)", id, w.ID, err)
	}
	dst := t.TempDir()
	if err := writeWitness(dst, w); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{manifestName, filepath.Join(blobsDir, w.Snapshot)} {
		want, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dst, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: rewritten bytes differ from the fixture", name)
		}
	}
}
