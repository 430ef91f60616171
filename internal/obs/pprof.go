package obs

import (
	"net"
	"net/http"
	"net/http/pprof"
)

// StartPprof serves the standard net/http/pprof endpoints on addr in a
// background goroutine and returns the bound address (useful when addr
// has port 0). The caller's process keeps running; the listener lives
// until exit. This is the -pprof flag's implementation on the CLIs:
// CPU and heap profiles of the engine and the optimizer come from the
// Go runtime, while spans and counters come from the Tracer.
func StartPprof(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln) //nolint:errcheck // server lives for the process
	return ln.Addr().String(), nil
}
