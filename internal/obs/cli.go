package obs

import (
	"flag"
	"fmt"
	"io"
	"os"
)

// CLIFlags bundles the observability flags every CLI of the repository
// exposes: -profile (text report), -trace (Chrome trace-event file),
// -events (JSONL log) and -pprof (runtime profiling server). Register
// them with RegisterFlags, obtain the tracer after flag parsing with
// Tracer, and write the outputs at exit with Finish.
type CLIFlags struct {
	Profile    bool
	TraceFile  string
	EventsFile string
	PprofAddr  string
}

// RegisterFlags registers the observability flags on fs (normally
// flag.CommandLine) and returns the bundle their values land in.
func RegisterFlags(fs *flag.FlagSet) *CLIFlags {
	f := &CLIFlags{}
	fs.BoolVar(&f.Profile, "profile", false, "print an aggregated profile to stderr at exit")
	fs.StringVar(&f.TraceFile, "trace", "", "write a Chrome trace-event file (Perfetto-loadable) to `FILE`")
	fs.StringVar(&f.EventsFile, "events", "", "write a JSONL event log to `FILE`")
	fs.StringVar(&f.PprofAddr, "pprof", "", "serve net/http/pprof on `ADDR`, e.g. localhost:6060")
	return f
}

// Tracer starts the pprof server if one was requested and returns a
// tracer when any flag needs events collected — nil otherwise, keeping
// the instrumented code on its untraced path.
func (f *CLIFlags) Tracer() (*Tracer, error) {
	if f.PprofAddr != "" {
		addr, err := StartPprof(f.PprofAddr)
		if err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
		fmt.Fprintf(os.Stderr, "pprof: serving on http://%s/debug/pprof/\n", addr)
	}
	if f.Profile || f.TraceFile != "" || f.EventsFile != "" {
		return New(), nil
	}
	return nil, nil
}

// Finish writes the requested outputs: the profile table to w and the
// trace/event files to disk. Safe to call with a nil tracer (only the
// "tracing disabled" note can then appear).
func (f *CLIFlags) Finish(w io.Writer, t *Tracer) error {
	if f.Profile {
		if err := WriteProfile(w, t); err != nil {
			return err
		}
	}
	if t == nil {
		return nil
	}
	evs := t.Events()
	if f.TraceFile != "" {
		if err := writeFile(f.TraceFile, evs, WriteChromeTrace); err != nil {
			return err
		}
	}
	if f.EventsFile != "" {
		if err := writeFile(f.EventsFile, evs, WriteJSONL); err != nil {
			return err
		}
	}
	return nil
}

func writeFile(path string, evs []Event, write func(io.Writer, []Event) error) error {
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(file, evs); err != nil {
		file.Close()
		return err
	}
	return file.Close()
}
