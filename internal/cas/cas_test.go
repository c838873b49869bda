package cas

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestAddresses(t *testing.T) {
	if got := HashHex([]byte("abc")); got != "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad" {
		t.Errorf("HashHex(abc) = %s", got)
	}
	// The ID is over encoding/json's bytes: struct field order, sorted
	// map keys.
	id, err := ContentID(map[string]any{"b": "x", "a": 1})
	if err != nil || id != HashHex([]byte(`{"a":1,"b":"x"}`))[:16] {
		t.Errorf("ContentID = %q, %v", id, err)
	}
	if _, err := ContentID(func() {}); err == nil {
		t.Error("ContentID encoded a func")
	}
	for _, bad := range []string{"", "00", strings.Repeat("g", 64), strings.Repeat("0", 63), "../" + strings.Repeat("0", 61)} {
		if CheckAddr(bad) == nil {
			t.Errorf("CheckAddr accepted %q", bad)
		}
	}
	if err := CheckAddr(HashHex(nil)); err != nil {
		t.Error(err)
	}
}

func TestBlobRoundTripAndCorruption(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "blobs")
	addr, err := PutBlob(dir, []byte("payload"))
	if err != nil || addr != HashHex([]byte("payload")) {
		t.Fatalf("PutBlob = %q, %v", addr, err)
	}
	if again, err := PutBlob(dir, []byte("payload")); err != nil || again != addr {
		t.Fatalf("second PutBlob = %q, %v", again, err)
	}
	if b, err := GetBlob(dir, addr); err != nil || string(b) != "payload" {
		t.Fatalf("GetBlob = %q, %v", b, err)
	}
	if err := os.WriteFile(filepath.Join(dir, addr), []byte("payloaD"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := GetBlob(dir, addr); err == nil || !strings.Contains(err.Error(), "hash mismatch") {
		t.Errorf("corrupt blob: %v", err)
	}
}

// A write that fails leaves nothing at its path and no temp file behind:
// here the rename, the last step, fails because a directory holds the
// path.
func TestWriteFileFailureLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	addr := HashHex([]byte("blob"))
	if err := os.Mkdir(filepath.Join(dir, addr), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(filepath.Join(dir, addr), []byte("blob")); err == nil {
		t.Fatal("write over a directory succeeded")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || !entries[0].IsDir() {
		t.Fatalf("failed write left %v", entries)
	}
	// A blob directory that cannot be created fails before any write.
	file := filepath.Join(dir, "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := PutBlob(filepath.Join(file, "blobs"), []byte("blob")); err == nil {
		t.Fatal("PutBlob under a regular file succeeded")
	}
}

func readLines(t *testing.T, data string) ([]string, Tail, error) {
	t.Helper()
	var lines []string
	tail, err := ReadLog(strings.NewReader(data), func(line []byte) error {
		lines = append(lines, string(line))
		return nil
	})
	return lines, tail, err
}

func TestReadLogFraming(t *testing.T) {
	cases := []struct {
		data    string
		lines   []string
		dropped int
	}{
		{"", nil, 0},
		{"{}\n", []string{"{}"}, 0},
		{"{}\r\n\n  \n[1]\n", []string{"{}", "[1]"}, 0},
		{"{}\n{\"a\":", []string{"{}"}, 5},
		{"{}\n  ", []string{"{}"}, 2},
	}
	for _, tc := range cases {
		lines, tail, err := readLines(t, tc.data)
		if err != nil || !reflect.DeepEqual(lines, tc.lines) || tail.Dropped != tc.dropped ||
			tail.Committed != int64(len(tc.data)-tc.dropped) {
			t.Errorf("%q: lines %q tail %+v err %v", tc.data, lines, tail, err)
		}
	}
	// A complete JSON value with its newline missing is not the prefix of
	// an interrupted append.
	if _, _, err := readLines(t, "{}\n{}"); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("unterminated complete record: %v", err)
	}
	if _, _, err := readLines(t, strings.Repeat("x", MaxLine+1)+"\n"); err == nil {
		t.Error("over-long line accepted")
	}
	boom := errors.New("boom")
	_, err := ReadLog(strings.NewReader("{}\n\n{}\n"), func(line []byte) error { return boom })
	if !errors.Is(err, boom) || !strings.HasPrefix(err.Error(), "line 1: ") {
		t.Errorf("decoder error = %v", err)
	}
}

// A torn tail is skipped by reads, reported in the Tail, and truncated by
// the next append, which then commits its own line in its place.
func TestAppendTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log", "log.jsonl")
	read := func() ([]string, Tail) {
		t.Helper()
		var lines []string
		tail, err := ReadLogFile(path, func(line []byte) error {
			lines = append(lines, string(line))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return lines, tail
	}
	if lines, tail := read(); lines != nil || tail != (Tail{Path: path}) || tail.Note() != "" {
		t.Fatalf("missing log: %q %+v", lines, tail)
	}
	for _, rec := range []string{`{"n":1}`, `{"n":2}`} {
		_, tail := read()
		if err := Append(path, tail, []byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	lines, tail := read()
	if len(lines) != 1 || tail.Dropped != 5 || tail.Committed != 8 ||
		!strings.Contains(tail.Note(), "5 bytes") || !strings.Contains(tail.Note(), path) {
		t.Fatalf("torn log: %q %+v %q", lines, tail, tail.Note())
	}
	if err := Append(path, tail, []byte(`{"n":3}`)); err != nil {
		t.Fatal(err)
	}
	if b, _ := os.ReadFile(path); string(b) != "{\"n\":1}\n{\"n\":3}\n" {
		t.Fatalf("after repair: %q", b)
	}
}

// FuzzReadLog holds the framing total and its committed length honest:
// arbitrary bytes never panic, the committed prefix always ends on a
// newline, and re-reading only that prefix yields the same lines with no
// torn tail.
func FuzzReadLog(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("{}\n{\"a\":"))
	f.Add([]byte("{}\n\n  {} \n"))
	f.Add([]byte("{}\n{}"))
	f.Add([]byte("x\r\ny"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var lines [][]byte
		collect := func(line []byte) error {
			lines = append(lines, bytes.Clone(line))
			return nil
		}
		tail, err := ReadLog(bytes.NewReader(data), collect)
		if err != nil {
			return
		}
		c := tail.Committed
		if c < 0 || c > int64(len(data)) || c+int64(tail.Dropped) != int64(len(data)) {
			t.Fatalf("tail %+v for %d bytes", tail, len(data))
		}
		if c > 0 && data[c-1] != '\n' {
			t.Fatalf("committed length %d does not end on a newline", c)
		}
		first := lines
		lines = nil
		again, err := ReadLog(bytes.NewReader(data[:c]), collect)
		if err != nil || again.Dropped != 0 || again.Committed != c {
			t.Fatalf("committed prefix re-read: %+v, %v", again, err)
		}
		if !reflect.DeepEqual(first, lines) {
			t.Fatalf("committed prefix yields %q, full read %q", lines, first)
		}
	})
}
