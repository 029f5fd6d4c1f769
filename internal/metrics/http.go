package metrics

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Mux is an http.ServeMux that remembers its registered paths so the
// /debug index can list them — one surface shape shared by capnn-serve
// and capnn-gateway.
type Mux struct {
	*http.ServeMux
	mu    sync.Mutex
	paths []string
}

// Handle registers a handler and records its path in the index.
func (m *Mux) Handle(path string, h http.Handler) {
	m.mu.Lock()
	m.paths = append(m.paths, path)
	m.mu.Unlock()
	m.ServeMux.Handle(path, h)
}

// HandleFunc registers a handler func and records its path in the index.
func (m *Mux) HandleFunc(path string, h func(http.ResponseWriter, *http.Request)) {
	m.Handle(path, http.HandlerFunc(h))
}

// NewMux builds the standard observability surface over a registry and
// an event log:
//
//	/metrics       Prometheus text exposition of the registry
//	/debug/events  recent structured events as a JSON array (?n= caps)
//	/debug         index of every mounted path
//
// Callers mount additional endpoints (e.g. /debug/stats) on the
// returned mux before serving it.
func NewMux(reg *Registry, log *EventLog) *Mux {
	m := &Mux{ServeMux: http.NewServeMux()}
	m.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	})
	m.HandleFunc("/debug/events", func(w http.ResponseWriter, r *http.Request) {
		n := 0
		if q := r.URL.Query().Get("n"); q != "" {
			v, err := strconv.Atoi(q)
			if err != nil || v < 0 {
				http.Error(w, "n must be a non-negative integer", http.StatusBadRequest)
				return
			}
			n = v
		}
		events := log.Snapshot(n)
		if events == nil {
			events = []Event{}
		}
		writeJSON(w, struct {
			Total  uint64  `json:"total"`
			Events []Event `json:"events"`
		}{Total: log.Total(), Events: events})
	})
	m.ServeMux.HandleFunc("/debug", func(w http.ResponseWriter, r *http.Request) {
		m.mu.Lock()
		paths := append([]string(nil), m.paths...)
		m.mu.Unlock()
		sort.Strings(paths)
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "capnn observability endpoints:")
		for _, p := range paths {
			fmt.Fprintf(w, "  %s\n", p)
		}
	})
	return m
}

// WriteJSON marshals v with indentation onto an HTTP response — shared
// by every /debug JSON endpoint.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// JSONHandler wraps a snapshot function as a /debug JSON endpoint.
func JSONHandler(fn func() any) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, fn())
	})
}

// Serve mounts h on a TCP listener at addr (e.g. "127.0.0.1:0") and
// serves it in the background, returning the bound address and a stop
// function. Read/write timeouts keep an abandoned scrape from pinning a
// connection goroutine.
func Serve(addr string, h http.Handler) (string, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{
		Handler:      h,
		ReadTimeout:  10 * time.Second,
		WriteTimeout: 30 * time.Second,
	}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), srv.Close, nil
}
