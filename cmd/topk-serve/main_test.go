package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// paddedQuery is a valid /query body of exactly size bytes: the padding
// sits inside the object, so a decoder must read all of it.
func paddedQuery(size int) string {
	head, tail := `{"queries":[10,50],`, `"k":5}`
	return head + strings.Repeat(" ", size-len(head)-len(tail)) + tail
}

// TestQueryBodyLimit: a body at the limit is answered; one byte more is
// refused with 413 instead of being cut and misreported as bad JSON.
func TestQueryBodyLimit(t *testing.T) {
	s, err := buildServer("interval", 500, 1, 1, 0, 1, "", "", 0, newRingWriter(8), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ size, want int }{
		{maxQueryBody, http.StatusOK},
		{maxQueryBody + 1, http.StatusRequestEntityTooLarge},
	} {
		rec := httptest.NewRecorder()
		s.handleQuery(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(paddedQuery(tc.size))))
		if rec.Code != tc.want {
			t.Errorf("%d-byte body: status %d (%s), want %d", tc.size, rec.Code, strings.TrimSpace(rec.Body.String()), tc.want)
		}
	}
}
