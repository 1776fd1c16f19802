package obshttp_test

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pardis/internal/obs"
	"pardis/internal/obs/leaktest"
	"pardis/internal/obs/obshttp"
)

func TestDebugEndpoint(t *testing.T) {
	reg := obs.NewRegistry()
	reg.MustCounter("endpoint_test_total").Add(3)
	tr := obs.NewTracer(16)
	tr.SetEnabled(true)
	tr.Record(obs.Span{Trace: 1, ID: 2, Layer: obs.LayerPOA, Name: "poa.dispatch", Start: 0, End: 10})

	addr, stop, err := obshttp.Serve("127.0.0.1:0", reg, tr, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("http://%s%s", addr, path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	if body := get("/metrics"); !strings.Contains(body, "endpoint_test_total 3") {
		t.Fatalf("/metrics missing counter:\n%s", body)
	}
	if body := get("/debug/vars"); !strings.Contains(body, `"endpoint_test_total": 3`) {
		t.Fatalf("/debug/vars missing counter:\n%s", body)
	}
	if body := get("/debug/trace"); !strings.Contains(body, "poa.dispatch") {
		t.Fatalf("/debug/trace missing span:\n%s", body)
	}
	if body := get("/healthz"); !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %q, want ok", body)
	}
	// The pprof index must be mounted (profiling endpoints ride along on
	// every debug listener).
	if body := get("/debug/pprof/cmdline"); body == "" {
		t.Fatal("/debug/pprof/cmdline empty")
	}
}

func TestHealthzProbe(t *testing.T) {
	reg := obs.NewRegistry()
	tr := obs.NewTracer(16)
	probe := func() error { return errors.New("load shed watermark stuck") }
	addr, stop, err := obshttp.Serve("127.0.0.1:0", reg, tr, probe, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	resp, err := http.Get(fmt.Sprintf("http://%s/healthz", addr))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("failing probe → status %d, want 503", resp.StatusCode)
	}
	b, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(b), "watermark") {
		t.Fatalf("healthz body %q missing probe error", b)
	}
}

// TestPagesArePerHandler: a page passed to Handler is served by that
// handler only; a handler built without it answers 404 at its path.
func TestPagesArePerHandler(t *testing.T) {
	pages := map[string]http.HandlerFunc{
		"/debug/extra": func(w http.ResponseWriter, _ *http.Request) {
			fmt.Fprint(w, "extra page")
		},
	}
	get := func(h http.Handler) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/extra", nil))
		return rec
	}
	if rec := get(obshttp.Handler(nil, nil, nil, pages)); rec.Code != 200 || rec.Body.String() != "extra page" {
		t.Fatalf("with the page: status %d, body %q", rec.Code, rec.Body)
	}
	if rec := get(obshttp.Handler(nil, nil, nil, nil)); rec.Code != http.StatusNotFound {
		t.Fatalf("without the page: status %d, want 404", rec.Code)
	}
}

// TestStopClosesKeptAliveConnections: after stop returns, nothing is served,
// not even to a client holding a kept-alive connection, and no goroutine of
// the server, or of the clients' transports, outlives it. Two clients, so
// that a stop that closed only the listener would leave more goroutines
// (one server handler and two transport loops per connection) than the leak
// check's slack.
func TestStopClosesKeptAliveConnections(t *testing.T) {
	baseline := leaktest.Baseline()
	addr, stop, err := obshttp.Serve("127.0.0.1:0", obs.NewRegistry(), nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	url := fmt.Sprintf("http://%s/healthz", addr)
	clients := []*http.Client{
		{Transport: &http.Transport{}},
		{Transport: &http.Transport{}},
	}
	for i, c := range clients {
		resp, err := c.Get(url)
		if err != nil {
			t.Fatalf("client %d before stop: %v", i, err)
		}
		// Read to the end so the connection goes back to the idle pool.
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if err := stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	for i, c := range clients {
		resp, err := c.Get(url)
		if err == nil {
			resp.Body.Close()
			t.Fatalf("client %d after stop: status %d, want an error", i, resp.StatusCode)
		}
	}
	leaktest.Check(t, baseline)
}
