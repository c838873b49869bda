package separability_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cas"
	"repro/internal/separability"
)

// testdata/compat holds shard artifacts written before the shard store
// moved onto internal/cas: shard 0 of a 2-shard minisue:register-leak
// sweep and a checkpoint of shard 1 after three chunks. Re-sealing and
// re-encoding them must reproduce their IDs and every byte.
func TestCompatFixturesRoundTrip(t *testing.T) {
	src := filepath.Join("testdata", "compat")
	resPath := filepath.Join(src, "shard-0.json")
	sr, err := separability.ReadShardResult(resPath)
	if err != nil {
		t.Fatal(err)
	}
	id := sr.ID
	sr.ID = "" // WriteFile re-seals an unsealed result
	out := filepath.Join(t.TempDir(), "shard-0.json")
	if err := sr.WriteFile(out); err != nil {
		t.Fatal(err)
	}
	if sr.ID != id {
		t.Errorf("re-sealed ID %s, fixture %s", sr.ID, id)
	}
	sameBytes(t, resPath, out)

	ckPath := filepath.Join(src, "checkpoint-1.json")
	ck, err := separability.ReadShardCheckpoint(ckPath)
	if err != nil || ck == nil {
		t.Fatalf("checkpoint: %v, %v", ck, err)
	}
	cp := *ck
	cp.ID = ""
	if id, err := cas.ContentID(&cp); err != nil || id != ck.ID {
		t.Errorf("recomputed checkpoint ID %q, fixture %q (%v)", id, ck.ID, err)
	}
	b, err := json.Marshal(ck)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(ckPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(b, '\n'), want) {
		t.Error("re-encoded checkpoint differs from the fixture")
	}
}

func sameBytes(t *testing.T, wantPath, gotPath string) {
	t.Helper()
	want, err := os.ReadFile(wantPath)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(gotPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: rewritten bytes differ from the fixture", filepath.Base(wantPath))
	}
}
