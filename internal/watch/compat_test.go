package watch

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cas"
)

// testdata/compat holds a ledger written before the ledger moved onto
// internal/cas: three sepwatch checks of "honest" (the third with
// SharedScratch planted) and their two trace blobs. Re-appending its
// records to a fresh ledger must reproduce every ID, the ledger's bytes
// and the blobs.
func TestCompatFixtureRoundTrips(t *testing.T) {
	src, err := OpenLedger(filepath.Join("testdata", "compat"), "honest")
	if err != nil {
		t.Fatal(err)
	}
	recs, err := src.Records()
	if err != nil || len(recs) != 3 {
		t.Fatalf("fixture: %d records, err=%v", len(recs), err)
	}
	dst, err := OpenLedger(t.TempDir(), "honest")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		trace, err := cas.GetBlob(filepath.Join(src.Dir(), blobsDir), r.TraceBlob)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := src.LoadTrace(r); err != nil {
			t.Fatal(err)
		}
		cp := *r
		cp.ID, cp.PrevID, cp.Seq, cp.TraceBlob = "", "", 0, ""
		if err := dst.Append(&cp, trace); err != nil {
			t.Fatal(err)
		}
		if cp.ID != r.ID || cp.PrevID != r.PrevID || cp.TraceBlob != r.TraceBlob {
			t.Errorf("seq %d: re-appended as %s (prev %q), fixture %s (prev %q)",
				r.Seq, cp.ID, cp.PrevID, r.ID, r.PrevID)
		}
	}
	names := []string{ledgerName}
	for _, r := range recs {
		names = append(names, filepath.Join(blobsDir, r.TraceBlob))
	}
	for _, name := range names {
		want, err := os.ReadFile(filepath.Join(src.Dir(), name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dst.Dir(), name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: rewritten bytes differ from the fixture", name)
		}
	}
}
