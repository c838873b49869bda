package main

import (
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// deriveSeed mixes the benchmark seed with a pass number (SplitMix64), so
// every check seed follows from the --seed argument alone.
func deriveSeed(seed int64, pass int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(pass+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if s := int64(z >> 1); s != 0 {
		return s
	}
	return 1
}

// locModules are the layers whose size the report records.
var locModules = []string{
	"internal/machine", "internal/kernel", "internal/model", "internal/minisue",
	"internal/separability", "internal/witness", "internal/staticflow",
	"internal/staticflow/triage", "internal/watch", "internal/verifysys", "internal/obs",
}

// countLines counts the non-blank lines that are not whole-line comments
// in the non-test Go files of dir (not its subdirectories): the E1 rule.
func countLines(dir string) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	total := 0
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return 0, err
		}
		for _, line := range strings.Split(string(data), "\n") {
			t := strings.TrimSpace(line)
			if t != "" && !strings.HasPrefix(t, "//") {
				total++
			}
		}
	}
	return total, nil
}

// revision is the VCS revision stamped into the binary, when it was built
// inside a git checkout.
func revision() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", ""
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	if rev == "" {
		return "unknown (not built in a git checkout)"
	}
	return rev + dirty
}
