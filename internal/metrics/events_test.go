package metrics

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func TestEventLogRingAndSeq(t *testing.T) {
	l := NewEventLog(4)
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	tick := 0
	l.SetNow(func() time.Time { tick++; return base.Add(time.Duration(tick) * time.Second) })

	for i := 0; i < 6; i++ {
		l.Record("failover", "node-a", "timeout")
	}
	if l.Total() != 6 {
		t.Fatalf("total = %d, want 6", l.Total())
	}
	all := l.Snapshot(0)
	if len(all) != 4 {
		t.Fatalf("retained %d events, want ring capacity 4", len(all))
	}
	// Oldest-first with monotone Seq surviving wraparound: 3,4,5,6.
	for i, e := range all {
		if want := uint64(i + 3); e.Seq != want {
			t.Fatalf("event[%d].Seq = %d, want %d", i, e.Seq, want)
		}
		if i > 0 && !all[i].Time.After(all[i-1].Time) {
			t.Fatalf("times not monotone at %d", i)
		}
	}
	last2 := l.Snapshot(2)
	if len(last2) != 2 || last2[1].Seq != 6 {
		t.Fatalf("Snapshot(2) = %+v", last2)
	}
}

func TestEventLogDefaultsAndFields(t *testing.T) {
	l := NewEventLog(0)
	l.Record("shed", "tenant:batch", "over-quota")
	got := l.Snapshot(0)
	if len(got) != 1 {
		t.Fatalf("len = %d", len(got))
	}
	e := got[0]
	if e.Type != "shed" || e.Source != "tenant:batch" || e.Cause != "over-quota" {
		t.Fatalf("event = %+v", e)
	}
	if e.Time.IsZero() {
		t.Fatal("time not stamped")
	}
}

func TestDebugEventsEndpoint(t *testing.T) {
	reg := NewRegistry()
	log := NewEventLog(8)
	log.Record("heal", "class-3", "breaker half-open probe")
	log.Record("breaker", "", "open -> half-open")
	mux := NewMux(reg, log)

	rr := httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/debug/events?n=1", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("status = %d", rr.Code)
	}
	var body struct {
		Total  uint64  `json:"total"`
		Events []Event `json:"events"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rr.Body.String())
	}
	if body.Total != 2 || len(body.Events) != 1 || body.Events[0].Type != "breaker" {
		t.Fatalf("body = %+v", body)
	}

	rr = httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/debug/events?n=bogus", nil))
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("bad n: status = %d, want 400", rr.Code)
	}
}

func TestMetricsEndpointAndDebugIndex(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("capnn_test_requests_total", "req").Add(2)
	log := NewEventLog(8)
	mux := NewMux(reg, log)
	mux.Handle("/debug/stats", JSONHandler(func() any { return map[string]int{"shards": 3} }))

	rr := httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("/metrics status = %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("content-type = %q", ct)
	}
	if body := rr.Body.String(); !containsLine(body, "capnn_test_requests_total 2") {
		t.Fatalf("/metrics body missing counter:\n%s", body)
	}

	rr = httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/debug", nil))
	body := rr.Body.String()
	for _, p := range []string{"/metrics", "/debug/events", "/debug/stats"} {
		if !containsLine(body, "  "+p) {
			t.Fatalf("/debug index missing %s:\n%s", p, body)
		}
	}

	rr = httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/debug/stats", nil))
	var cl map[string]int
	if err := json.Unmarshal(rr.Body.Bytes(), &cl); err != nil || cl["shards"] != 3 {
		t.Fatalf("/debug/stats = %s (err %v)", rr.Body.String(), err)
	}
}

func containsLine(body, line string) bool {
	for len(body) > 0 {
		i := 0
		for i < len(body) && body[i] != '\n' {
			i++
		}
		if body[:i] == line {
			return true
		}
		if i == len(body) {
			break
		}
		body = body[i+1:]
	}
	return false
}
