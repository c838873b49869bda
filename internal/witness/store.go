package witness

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"

	"repro/internal/cas"
)

// The on-disk layout of a witness directory:
//
//	<dir>/manifest.jsonl   — one canonical JSON Witness per line, appended
//	<dir>/blobs/<sha256>   — pre-state snapshot blobs, content-addressed
//
// Both sides are content-addressed in the internal/cas format: blobs by
// their SHA-256, manifest records by the ID baked into each line (the
// SHA-256 of the record with its ID blanked). Re-capturing the identical
// counterexample is therefore idempotent — the store recognizes the ID and
// skips the append.

const (
	manifestName = "manifest.jsonl"
	blobsDir     = "blobs"
)

// computeID derives the content address of a witness record: the first 16
// hex digits of the SHA-256 of its canonical JSON with the ID field empty.
// Re-encoding a decoded witness reproduces the same bytes, the fixed point
// FuzzWitnessRead checks.
func computeID(w *Witness) (string, error) {
	cp := *w
	cp.ID = ""
	return cas.ContentID(&cp)
}

// writeWitness persists w into dir, creating the layout as needed. The
// blob write and the manifest append are both skipped when the content is
// already present.
func writeWitness(dir string, w *Witness) error {
	if w.ID == "" {
		return fmt.Errorf("witness: refusing to persist a witness without an ID")
	}
	if w.blob != nil {
		if _, err := cas.PutBlob(filepath.Join(dir, blobsDir), w.blob); err != nil {
			return err
		}
	}
	existing, tail, err := LoadTail(dir)
	if err != nil {
		return err
	}
	for _, e := range existing {
		if e.ID == w.ID {
			return nil
		}
	}
	line, err := json.Marshal(w)
	if err != nil {
		return err
	}
	return cas.Append(filepath.Join(dir, manifestName), tail, line)
}

// Load reads the manifest of a witness directory. Snapshot blobs are NOT
// loaded — call LoadState per witness before replaying. A missing
// manifest yields an empty slice (an empty store, not an error).
func Load(dir string) ([]*Witness, error) {
	ws, _, err := LoadTail(dir)
	return ws, err
}

// LoadTail is Load, also reporting where the manifest's committed records
// end: a torn final line left by a capture killed mid-append is skipped
// and reported there, and the next capture truncates it.
func LoadTail(dir string) ([]*Witness, cas.Tail, error) {
	var ws []*Witness
	tail, err := cas.ReadLogFile(filepath.Join(dir, manifestName), collect(&ws))
	if err != nil {
		return nil, tail, fmt.Errorf("witness: %w", err)
	}
	return ws, tail, nil
}

// ReadManifest decodes a manifest.jsonl stream. Every committed line must
// be a valid witness record: parseable JSON, an ID consistent with the
// record's content, and a well-formed snapshot hash. The decoder is total
// — any input, including adversarial bytes, yields witnesses or an error,
// never a panic (FuzzWitnessRead holds it to that).
func ReadManifest(r io.Reader) ([]*Witness, error) {
	var ws []*Witness
	if _, err := cas.ReadLog(r, collect(&ws)); err != nil {
		return nil, err
	}
	return ws, nil
}

// collect returns the manifest line decoder: each line must decode and
// validate as a witness, which is appended to *ws.
func collect(ws *[]*Witness) func(line []byte) error {
	return func(line []byte) error {
		w := &Witness{}
		if err := json.Unmarshal(line, w); err != nil {
			return err
		}
		if err := validate(w); err != nil {
			return err
		}
		*ws = append(*ws, w)
		return nil
	}
}

// validate enforces the structural invariants a record must satisfy before
// anything trusts it: a content-consistent ID, a hex snapshot address, and
// at least one step (the violating step itself).
func validate(w *Witness) error {
	id, err := computeID(w)
	if err != nil {
		return err
	}
	if w.ID != id {
		return fmt.Errorf("witness %q: ID does not match content (want %s)", w.ID, id)
	}
	if err := cas.CheckAddr(w.Snapshot); err != nil {
		return fmt.Errorf("witness %s: snapshot %w", w.ID, err)
	}
	if len(w.Steps) == 0 {
		return fmt.Errorf("witness %s: no steps", w.ID)
	}
	if w.Step < 0 || w.Trial < 0 || len(w.Steps) > w.OrigSteps {
		return fmt.Errorf("witness %s: inconsistent step accounting", w.ID)
	}
	return nil
}

// LoadState reads and verifies the witness's snapshot blob from dir,
// making the witness replayable.
func (w *Witness) LoadState(dir string) error {
	if w.blob != nil {
		return nil
	}
	b, err := cas.GetBlob(filepath.Join(dir, blobsDir), w.Snapshot)
	if err != nil {
		return fmt.Errorf("witness %s: snapshot %w", w.ID, err)
	}
	w.blob = b
	return nil
}
