package telemetry

import (
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
)

// expvarReg is the registry the process-wide expvar "telemetry" var
// reads; Serve repoints it so the last-served registry wins (expvar
// names are global and cannot be re-published).
var expvarReg atomic.Pointer[Registry]

// expvarPublished guards the one-time Publish.
var expvarPublished atomic.Bool

// Handler returns the registry's HTTP mux:
//
//	/telemetry    merged Snapshot JSON
//	/trace        span streams + anomaly exemplars JSON
//	/debug/vars   expvar (includes the "telemetry" var)
//	/debug/pprof  the standard pprof index and profiles
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/telemetry", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = r.WriteJSON(w)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = r.DumpTrace(w)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve exposes the registry over HTTP on addr (the -listen flag): the
// snapshot, the trace dump, expvar and pprof. It returns the
// running server and its bound address; callers Close the server when
// the scan ends. The registry is also published as the expvar var
// "telemetry" so stock expvar scrapers see it.
func (r *Registry) Serve(addr string) (*http.Server, net.Addr, error) {
	expvarReg.Store(r)
	if expvarPublished.CompareAndSwap(false, true) {
		expvar.Publish("telemetry", expvar.Func(func() any {
			return expvarReg.Load().Snapshot()
		}))
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	srv := &http.Server{Handler: r.Handler()}
	go func() { _ = srv.Serve(ln) }()
	return srv, ln.Addr(), nil
}
