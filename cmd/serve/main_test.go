package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestBodyLimits posts oversized and malformed bodies to every JSON
// endpoint of a mux whose server and router are nil: the request must
// be answered 413 or 400 from the decode step, since reaching the
// router would panic.
func TestBodyLimits(t *testing.T) {
	mux := newMux(nil, nil, nil)
	for _, tc := range []struct {
		path  string
		limit int
	}{
		{"/maxflow", maxQueryBody},
		{"/update/capacities", maxUpdateBody},
		{"/update/topology", maxUpdateBody},
	} {
		// A syntactically valid prefix whose string runs past the cap,
		// so the decoder has to read beyond it.
		big := `{"pad": "` + strings.Repeat("x", tc.limit) + `"}`
		for _, c := range []struct {
			body string
			want int
		}{
			{big, http.StatusRequestEntityTooLarge},
			{`{"s": 1, "t":`, http.StatusBadRequest},
			{`[1, 2`, http.StatusBadRequest},
		} {
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(c.body)))
			if rec.Code != c.want {
				t.Errorf("POST %s (%d-byte body): status %d, want %d: %s",
					tc.path, len(c.body), rec.Code, c.want, rec.Body.String())
			}
		}
	}
}

func TestServerTimeouts(t *testing.T) {
	hs := newHTTPServer(":0", http.NewServeMux())
	if hs.ReadHeaderTimeout <= 0 || hs.ReadTimeout <= 0 || hs.IdleTimeout <= 0 {
		t.Errorf("timeouts not set: header %v, read %v, idle %v",
			hs.ReadHeaderTimeout, hs.ReadTimeout, hs.IdleTimeout)
	}
}
