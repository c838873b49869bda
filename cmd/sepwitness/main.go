// Command sepwitness manages counterexample witness artifacts captured by
// sepverify -witness-dir (see internal/witness).
//
//	sepwitness -dir W list                  # one line per stored witness
//	sepwitness -dir W show [ID...]          # full JSON records
//	sepwitness -dir W replay [ID...]        # re-execute against fresh systems
//	sepwitness -dir W diff OTHERDIR         # compare two witness stores
//
// replay rebuilds each witness's system from its recorded SystemSpec,
// restores the pre-state snapshot, re-applies the recorded input sequence
// and asserts that the recorded condition fires for the recorded colour
// with the recorded Φ^c digest pair. Exit status is 0 when every selected
// witness replays (or the stores agree, for diff), 1 otherwise, 2 on usage
// errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/verifysys"
	"repro/internal/witness"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sepwitness", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", "witnesses", "witness artifact directory")
	requireShrink := fs.Bool("require-shrink", false,
		"with replay: additionally fail unless the store's witnesses were shrunk overall")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: sepwitness [-dir DIR] [-require-shrink] <list|show|replay|diff> [args]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return 2
	}
	cmd, rest := fs.Arg(0), fs.Args()[1:]

	ws, err := load(*dir, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "sepwitness:", err)
		return 2
	}

	switch cmd {
	case "list":
		return cmdList(ws, stdout)
	case "show":
		return cmdShow(ws, rest, stdout, stderr)
	case "replay":
		return cmdReplay(*dir, ws, rest, *requireShrink, stdout, stderr)
	case "diff":
		if len(rest) != 1 {
			fmt.Fprintln(stderr, "sepwitness: diff needs exactly one other directory")
			return 2
		}
		other, err := load(rest[0], stderr)
		if err != nil {
			fmt.Fprintln(stderr, "sepwitness:", err)
			return 2
		}
		return cmdDiff(*dir, ws, rest[0], other, stdout)
	default:
		fmt.Fprintf(stderr, "sepwitness: unknown command %q\n", cmd)
		fs.Usage()
		return 2
	}
}

// load reads a witness store, noting on stderr a torn final manifest line
// (a capture killed mid-append) that the read skipped.
func load(dir string, stderr io.Writer) ([]*witness.Witness, error) {
	ws, tail, err := witness.LoadTail(dir)
	if n := tail.Note(); err == nil && n != "" {
		fmt.Fprintln(stderr, "sepwitness:", n)
	}
	return ws, err
}

// describe renders the one-line summary of a witness.
func describe(w *witness.Witness) string {
	sys := w.System.Kind
	if w.System.Leak != "" {
		sys += "/" + w.System.Leak
	}
	if !w.System.Cut {
		sys += " (uncut)"
	}
	return fmt.Sprintf("%-16s %-28s %-8s %-22s steps %3d->%-3d %s!=%s",
		w.ID, w.ConditionName, w.Colour, sys, w.OrigSteps, len(w.Steps), w.Want, w.Got)
}

func cmdList(ws []*witness.Witness, stdout io.Writer) int {
	for _, w := range ws {
		fmt.Fprintln(stdout, describe(w))
	}
	if len(ws) == 0 {
		fmt.Fprintln(stdout, "no witnesses")
	}
	return 0
}

// select filters the store by ID prefixes; no arguments selects everything.
func selectWitnesses(ws []*witness.Witness, ids []string, stderr io.Writer) ([]*witness.Witness, bool) {
	if len(ids) == 0 {
		return ws, true
	}
	var out []*witness.Witness
	for _, id := range ids {
		found := false
		for _, w := range ws {
			if strings.HasPrefix(w.ID, id) {
				out = append(out, w)
				found = true
			}
		}
		if !found {
			fmt.Fprintf(stderr, "sepwitness: no witness matches %q\n", id)
			return nil, false
		}
	}
	return out, true
}

func cmdShow(ws []*witness.Witness, ids []string, stdout, stderr io.Writer) int {
	sel, ok := selectWitnesses(ws, ids, stderr)
	if !ok {
		return 2
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	for _, w := range sel {
		if err := enc.Encode(w); err != nil {
			fmt.Fprintln(stderr, "sepwitness:", err)
			return 2
		}
	}
	return 0
}

func cmdReplay(dir string, ws []*witness.Witness, ids []string,
	requireShrink bool, stdout, stderr io.Writer) int {

	sel, ok := selectWitnesses(ws, ids, stderr)
	if !ok {
		return 2
	}
	if len(sel) == 0 {
		fmt.Fprintln(stderr, "sepwitness: nothing to replay")
		return 1
	}
	failures, dropped := 0, 0
	for _, w := range sel {
		dropped += w.OrigSteps - len(w.Steps)
		sys, err := verifysys.FromSpec(w.System)
		if err != nil {
			fmt.Fprintf(stderr, "sepwitness: %s: %v\n", w.ID, err)
			failures++
			continue
		}
		if err := w.LoadState(dir); err != nil {
			fmt.Fprintf(stderr, "sepwitness: %s: %v\n", w.ID, err)
			failures++
			continue
		}
		v, err := witness.Replay(sys, w)
		if err != nil {
			fmt.Fprintf(stdout, "FAIL %s: %v\n", w.ID, err)
			failures++
			continue
		}
		fmt.Fprintf(stdout, "ok   %s  %s fired for %s at replayed step %d (%d ops, digests %016x!=%016x)\n",
			w.ID, v.Condition, v.Colour, len(w.Steps)-1, len(w.Steps), v.Want, v.Got)
	}
	fmt.Fprintf(stdout, "replayed %d/%d witnesses, %d ops shrunk away in total\n",
		len(sel)-failures, len(sel), dropped)
	if failures > 0 {
		return 1
	}
	if requireShrink && dropped == 0 {
		fmt.Fprintln(stdout, "FAIL: -require-shrink set but no witness was shrunk")
		return 1
	}
	return 0
}

// diffKey identifies the violation a witness demonstrates, independent of
// the specific walk that reaches it — the unit of cross-build comparison.
func diffKey(w *witness.Witness) string {
	sys := w.System.Kind + "/" + w.System.Leak
	if !w.System.Cut {
		sys += "/uncut"
	}
	return fmt.Sprintf("%s %s %s", sys, w.ConditionName, w.Colour)
}

func cmdDiff(dirA string, a []*witness.Witness, dirB string, b []*witness.Witness, stdout io.Writer) int {
	am, bm := map[string]*witness.Witness{}, map[string]*witness.Witness{}
	add := func(m map[string]*witness.Witness, ws []*witness.Witness) {
		for _, w := range ws {
			if k := diffKey(w); m[k] == nil {
				m[k] = w
			}
		}
	}
	add(am, a)
	add(bm, b)
	var keys []string
	for k := range am {
		keys = append(keys, k)
	}
	for k := range bm {
		if am[k] == nil {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)

	differ := 0
	for _, k := range keys {
		wa, wb := am[k], bm[k]
		switch {
		case wa == nil:
			fmt.Fprintf(stdout, "only in %s: %s (%s)\n", dirB, k, wb.ID)
			differ++
		case wb == nil:
			fmt.Fprintf(stdout, "only in %s: %s (%s)\n", dirA, k, wa.ID)
			differ++
		case wa.ID == wb.ID:
			fmt.Fprintf(stdout, "same:      %s (%s)\n", k, wa.ID)
		default:
			fmt.Fprintf(stdout, "changed:   %s (%s -> %s, steps %d -> %d)\n",
				k, wa.ID, wb.ID, len(wa.Steps), len(wb.Steps))
		}
	}
	fmt.Fprintf(stdout, "%d witnesses in %s, %d in %s, %d differences\n",
		len(a), dirA, len(b), dirB, differ)
	if differ > 0 {
		return 1
	}
	return 0
}
