// Package cas owns the on-disk format of the verifier's evidence: witness
// stores, shard artifacts and watch ledgers are all built from the pieces
// here, so identical bytes get identical addresses everywhere.
//
//   - HashHex is the content address of a blob (SHA-256, lowercase hex).
//   - ContentID is the 16-hex-digit ID of a record: the truncated SHA-256
//     of its canonical JSON (encoding/json, struct field order, sorted map
//     keys) with the record's own ID field blanked by the caller.
//   - WriteFile replaces a file through a same-directory temp file plus
//     rename, so a reader, or a process killed mid-write, sees either the
//     previous complete file or the new one, never a torn one.
//   - PutBlob and GetBlob keep a directory of blobs named by HashHex; every
//     read is checked against its address.
//   - ReadLog and Append frame an append-only JSONL log. A record is
//     committed when its terminating '\n' is on disk: readers skip a final
//     line without one and report its length in Tail, and the next Append
//     truncates it away before writing. That is crash damage, not
//     tampering; every complete line is still handed to the caller's
//     decoder, and a final line that is complete JSON but lacks its newline
//     is an error, because a writer cut off mid-append leaves a proper
//     prefix of its line.
//
// Record schemas, ID fields, chain rules and validation stay with the
// packages that own them. The package imports only the standard library.
package cas

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// MaxLine bounds one log line; a record is a few KB, far below this.
const MaxLine = 16 << 20

// HashHex returns the SHA-256 of b in lowercase hex: a blob's address.
func HashHex(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// ContentID returns the first 16 hex digits of the SHA-256 of v's JSON
// encoding. v must already have its own ID field blanked.
func ContentID(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	return HashHex(b)[:16], nil
}

// CheckAddr reports whether addr is shaped like a HashHex address (64 hex
// digits), so it can be trusted as a file name under a blob directory.
func CheckAddr(addr string) error {
	if _, err := hex.DecodeString(addr); err != nil || len(addr) != 64 {
		return fmt.Errorf("address %q is not a sha256", addr)
	}
	return nil
}

// WriteFile writes b to path through a same-directory temp file and
// rename. On failure the temp file is removed and path is untouched.
func WriteFile(path string, b []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-")
	if err != nil {
		return err
	}
	_, err = tmp.Write(b)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// PutBlob stores b in dir (created if needed) under its address and
// returns the address. A blob already present is not rewritten: its name
// is its content.
func PutBlob(dir string, b []byte) (string, error) {
	addr := HashHex(b)
	path := filepath.Join(dir, addr)
	if _, err := os.Stat(path); err == nil {
		return addr, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return addr, WriteFile(path, b)
}

// GetBlob reads the blob at addr from dir and checks it against addr,
// which the caller has validated with CheckAddr.
func GetBlob(dir, addr string) ([]byte, error) {
	b, err := os.ReadFile(filepath.Join(dir, addr))
	if err != nil {
		return nil, err
	}
	if HashHex(b) != addr {
		return nil, fmt.Errorf("blob %s corrupt (hash mismatch)", addr)
	}
	return b, nil
}

// Tail says where a log's committed records end.
type Tail struct {
	// Path is the log file ReadLogFile read ("" after ReadLog).
	Path string
	// Committed is the length through the last '\n'.
	Committed int64
	// Dropped is the length of a final line with no '\n' after it: an
	// append a crash cut short, skipped by the read.
	Dropped int
}

// Note is the one-line report of a torn final line, or "" when the log
// ends on a committed record.
func (t Tail) Note() string {
	if t.Dropped == 0 {
		return ""
	}
	return fmt.Sprintf("%s: skipped a torn final line (%d bytes, crash damage, not tampering); the next append truncates it",
		t.Path, t.Dropped)
}

// ReadLog frames r into lines and calls each with every committed,
// non-blank line, trimmed of surrounding space. An error from each stops
// the read and comes back prefixed with the 1-based line number. A final
// line with no '\n' is not passed to each: it is reported in Tail.Dropped,
// or is an error when it is complete JSON (see the package comment).
func ReadLog(r io.Reader, each func(line []byte) error) (Tail, error) {
	var t Tail
	ln := 0
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), MaxLine)
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			return i + 1, data[:i], nil
		}
		if !atEOF || len(data) == 0 {
			return 0, nil, nil
		}
		if json.Valid(data) {
			return 0, nil, fmt.Errorf("line %d: complete record without its terminating newline", ln+1)
		}
		t.Dropped = len(data)
		return len(data), nil, nil
	})
	for sc.Scan() {
		ln++
		t.Committed += int64(len(sc.Bytes())) + 1
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if err := each(line); err != nil {
			return t, fmt.Errorf("line %d: %w", ln, err)
		}
	}
	return t, sc.Err()
}

// ReadLogFile is ReadLog over the file at path. A missing file is an empty
// log; other errors name the path.
func ReadLogFile(path string, each func(line []byte) error) (Tail, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return Tail{Path: path}, nil
	}
	if err != nil {
		return Tail{Path: path}, err
	}
	defer f.Close()
	t, err := ReadLog(f, each)
	t.Path = path
	if err != nil {
		err = fmt.Errorf("%s: %w", path, err)
	}
	return t, err
}

// Append commits line as the next record of the log at path, creating the
// file and its directory as needed. t must come from a read of the same
// log; a torn final line it reports is truncated away first. The log has
// a single writer.
func Append(path string, t Tail, line []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	if t.Dropped > 0 {
		if err := f.Truncate(t.Committed); err != nil {
			return err
		}
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		return err
	}
	return f.Close()
}
