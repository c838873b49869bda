// Command seprun boots a SUE-Go separation-kernel system and runs it.
//
// With no arguments it runs a built-in two-regime demo (a sender and a
// receiver joined by one kernel channel). Given assembly files, it boots
// one regime per file, in argument order, optionally joined by channels:
//
//	seprun -steps 20000 red.s black.s -chan 0:1 -chan 1:0
//
// Each -chan FROM:TO adds a unidirectional channel between regime indexes.
// The kernel ABI prelude (TRAP numbers, device segment addresses) is
// prepended to every file automatically.
//
// Observability (see internal/obs):
//
//	seprun -trace out.jsonl                     # JSONL event trace
//	seprun -trace -                             # JSONL to stdout (report → stderr)
//	seprun -trace out.json -trace-format chrome # open in chrome://tracing
//	seprun -itrace 20                           # print first 20 instructions
//	seprun -metrics                             # Prometheus-text kernel counters
//
// Every run ends with a per-regime exit report: instructions executed,
// syscalls, channel traffic, final state and any fault reason. With
// -trace - the report moves to stderr, so `seprun -trace - | septrace
// covert -` pipes a clean event stream.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/obs"
)

type chanFlags []string

func (c *chanFlags) String() string { return strings.Join(*c, ",") }

func (c *chanFlags) Set(v string) error {
	*c = append(*c, v)
	return nil
}

const demoSender = `
	.org 0x40
start:
	MOV #1, R2
loop:
	MOV #0, R0
	MOV R2, R1
	TRAP #SEND
	ADD #1, R2
	CMP #11, R2
	BEQ done
	TRAP #SWAP
	BR loop
done:
	TRAP #HALTME
`

const demoReceiver = `
	.org 0x40
start:
	MOV #0, R4
loop:
	MOV #0, R0
	TRAP #RECV
	CMP #1, R0
	BNE yield
	ADD R1, R4
	MOV R4, @0x20
	BR loop
yield:
	TRAP #SWAP
	BR loop
`

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command behind main, with its arguments and output
// streams passed in so tests can drive it. It returns the exit code: 0 on
// success, 2 on a usage error, 1 on any other failure.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("seprun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	steps := fs.Int("steps", 50000, "maximum machine cycles to run")
	cut := fs.Bool("cut", false, "apply the channel-cutting transformation")
	itrace := fs.Int("itrace", 0, "print the first N executed instructions")
	slice := fs.Int("slice", 0, "fixed time slice in cycles (0 = run until SWAP)")
	tracePath := fs.String("trace", "", "write a kernel event trace to this file")
	traceFormat := fs.String("trace-format", "jsonl",
		"trace file format: jsonl (one event per line) or chrome (trace_event for chrome://tracing / Perfetto)")
	metrics := fs.Bool("metrics", false, "dump kernel activity counters in Prometheus text format after the run")
	var chans chanFlags
	fs.Var(&chans, "chan", "add a channel FROM:TO between regime indexes (repeatable)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "seprun:", err)
		return 1
	}

	// With -trace - the event stream owns stdout; everything else (the
	// demo banner, the exit report, metrics) moves to stderr so the JSONL
	// can be piped straight into septrace.
	out := stdout
	if *tracePath == "-" {
		out = stderr
	}

	b := core.NewBuilder()
	var names []string
	if fs.NArg() == 0 {
		b.Regime("sender", demoSender)
		b.Regime("receiver", demoReceiver)
		b.Channel("sender", "receiver", 8)
		names = []string{"sender", "receiver"}
		fmt.Fprintln(out, "seprun: no programs given; running the built-in sender/receiver demo")
	} else {
		for i, path := range fs.Args() {
			src, err := os.ReadFile(path)
			if err != nil {
				return fail(err)
			}
			name := fmt.Sprintf("r%d", i)
			names = append(names, name)
			b.Regime(name, string(src))
		}
		for _, spec := range chans {
			var from, to int
			if _, err := fmt.Sscanf(spec, "%d:%d", &from, &to); err != nil {
				return fail(fmt.Errorf("bad -chan %q: %w", spec, err))
			}
			if from < 0 || from >= len(names) || to < 0 || to >= len(names) {
				return fail(fmt.Errorf("-chan %q references a missing regime", spec))
			}
			b.Channel(names[from], names[to], 16)
		}
	}
	if *cut {
		b.CutChannels()
	}
	if *slice > 0 {
		b.WithFixedSlice(*slice)
	}

	sys, err := b.Build()
	if err != nil {
		return fail(err)
	}
	if *itrace > 0 {
		left := *itrace
		sys.Machine.SetTracer(func(e machine.TraceEntry) {
			if left <= 0 {
				return
			}
			left--
			who := "kernel"
			if e.User {
				who = names[sys.Kernel.CurrentRegime()]
			}
			fmt.Fprintf(out, "%s  [%s]\n", e, who)
		})
	}

	// Event tracing: attach the requested sink before the run and finish
	// the file (flush / close the JSON array) after it.
	var finishTrace func() error
	if *tracePath != "" {
		w := stdout
		closeFile := func() error { return nil }
		if *tracePath != "-" {
			f, err := os.Create(*tracePath)
			if err != nil {
				return fail(err)
			}
			w, closeFile = f, f.Close
		}
		switch *traceFormat {
		case "jsonl":
			j := obs.NewJSONL(w)
			sys.SetTracer(j)
			finishTrace = func() error {
				if err := j.Flush(); err != nil {
					return err
				}
				return closeFile()
			}
		case "chrome":
			c := obs.NewChrome(w, sys.RegimeNames())
			sys.SetTracer(c)
			finishTrace = func() error {
				if err := c.Close(); err != nil {
					return err
				}
				return closeFile()
			}
		default:
			closeFile()
			return fail(fmt.Errorf("unknown -trace-format %q (want jsonl or chrome)", *traceFormat))
		}
	}

	n := sys.RunUntilIdle(*steps)

	if finishTrace != nil {
		if err := finishTrace(); err != nil {
			return fail(err)
		}
		fmt.Fprintf(out, "trace written to %s (%s)\n", *tracePath, *traceFormat)
	}

	fmt.Fprintf(out, "ran %d cycles (%d machine cycles total)\n", n, sys.Machine.Cycles())
	if sys.Kernel.Dead() {
		fmt.Fprintf(out, "KERNEL DIED: %v\n", sys.Kernel.Cause)
		return 1
	}
	exitReport(out, sys, names)

	if *metrics {
		reg := obs.NewRegistry()
		sys.Kernel.FillRegistry(reg)
		fmt.Fprintln(out, "\nmetrics:")
		reg.WritePrometheus(out)
	}
	return 0
}

// exitReport prints the per-regime outcome: what each regime did (from the
// kernel's activity counters) and how it ended.
func exitReport(out io.Writer, sys *core.System, names []string) {
	st := sys.Stats()
	fmt.Fprintf(out, "kernel: swaps=%d sched-decisions=%d ctx-switches=%d interrupts=%d deliveries=%d\n",
		st.Swaps, st.SchedDecisions, st.Switches, st.Interrupts, st.Deliveries)
	fmt.Fprintf(out, "%-10s %-13s %9s %9s %6s %6s  %s\n",
		"regime", "state", "instrs", "syscalls", "sends", "recvs", "exit")
	for i, name := range names {
		state := sys.Kernel.RegimeStateOf(i)
		stateName := map[machine.Word]string{
			kernel.StateRunnable: "runnable",
			kernel.StateDead:     "halted",
			kernel.StateWaitIRQ:  "waiting-irq",
		}[state]
		exit := "ran to step limit"
		switch state {
		case kernel.StateDead:
			exit = "halted voluntarily (TRAP #HALTME)"
			if f := sys.Kernel.RegimeFault(i); f.Reason != "" {
				stateName = "faulted"
				exit = fmt.Sprintf("FAULT: %s at PC %#x", f.Reason, f.PC)
			}
		case kernel.StateWaitIRQ:
			exit = "blocked in TRAP #WAITIRQ"
		}
		w, _ := sys.RegimeWord(name, 0x20)
		fmt.Fprintf(out, "%-10s %-13s %9d %9d %6d %6d  %s (mem[0x20]=%#x)\n",
			name, stateName,
			st.InstrPerRegime[i], st.SyscallPerRegime[i],
			st.SendPerRegime[i], st.RecvPerRegime[i], exit, w)
	}
}
