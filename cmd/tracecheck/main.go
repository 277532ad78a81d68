// Command tracecheck validates a JSONL trace produced by
// `rvmrun -trace-out FILE -trace-format=jsonl` against the rvm-trace
// schema: a leading meta line carrying the schema version and the complete
// kind vocabulary, followed by event lines with known kinds and
// non-negative timestamps. The validated events are then replayed into the
// observer, and any it drops as unjoinable (a wait-end without a start, a
// rollback for an unheld monitor) are reported — a nonzero count means the
// stream would not reconstruct faithfully. CI runs tracecheck over example
// traces so a schema drift (renamed kind, missing meta field) fails the
// build instead of silently breaking downstream consumers.
//
// Streams converted from a wrapped flight-recorder ring (`rvmfr jsonl`)
// declare in their meta line that a prefix was overwritten. On such a
// stream, dropped events are expected — they join into the missing prefix —
// so -strict reports but tolerates them; on a complete stream they still
// fail.
//
// With -metrics-out, the replayed observer's latency metrics are written
// as JSON in exactly the format of `rvmrun -metrics json`. Comparing the
// two files for one run checks that the JSONL stream carries everything
// the metrics are built from.
//
// Usage:
//
//	tracecheck [-strict] FILE...   validate each file, report event and
//	                               dropped counts
//	tracecheck [-strict] -         validate standard input
//	tracecheck -metrics-out OUT FILE
//	                               also write FILE's replayed metrics to OUT
//
// Exit status is 0 when every input validates, 1 otherwise. With -strict,
// dropped events also fail the run (unless the stream declares truncation).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/obs"
)

func main() {
	strict := flag.Bool("strict", false, "exit non-zero when the observer dropped any event as unjoinable")
	metricsOut := flag.String("metrics-out", "", "write the replayed metrics of the single input FILE as JSON to OUT")
	flag.Parse()
	os.Exit(run(os.Stdout, os.Stderr, flag.Args(), *strict, *metricsOut))
}

func run(out, errw io.Writer, args []string, strict bool, metricsOut string) int {
	if len(args) == 0 || metricsOut != "" && len(args) != 1 {
		fmt.Fprintln(errw, "usage: tracecheck [-strict] [-metrics-out OUT] FILE...   (or '-' for stdin; -metrics-out takes one FILE)")
		return 2
	}
	code := 0
	for _, path := range args {
		if err := check(out, path, strict, metricsOut); err != nil {
			fmt.Fprintf(errw, "tracecheck: %s: %v\n", path, err)
			code = 1
		}
	}
	return code
}

func check(out io.Writer, path string, strict bool, metricsOut string) error {
	var r io.Reader
	if path == "-" {
		r = os.Stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	events, info, err := obs.ParseJSONLInfo(r)
	if err != nil {
		return err
	}
	o := obs.NewObserver()
	for _, e := range events {
		o.Emit(e)
	}
	note := ""
	if info.Truncated {
		note = fmt.Sprintf(", truncated: %d lost before stream start", info.Lost)
	}
	fmt.Fprintf(out, "%s: ok (schema v%d, %d events, %d dropped%s)\n",
		path, obs.SchemaVersion, len(events), o.Dropped(), note)
	if strict && o.Dropped() > 0 && !info.Truncated {
		return fmt.Errorf("%d events dropped as unjoinable (-strict)", o.Dropped())
	}
	if metricsOut == "" {
		return nil
	}
	f, err := os.Create(metricsOut)
	if err != nil {
		return err
	}
	if err := o.Metrics().WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
