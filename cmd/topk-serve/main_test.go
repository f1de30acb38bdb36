package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"topk"
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

// TestIngestBodyLimit: an /ingest body over maxIngestBody is refused with
// 413 and applies nothing, even when the cut falls between lines. The
// body is one valid item, whitespace-only lines past the cap, then a
// second valid item; it is streamed, never held in memory.
func TestIngestBodyLimit(t *testing.T) {
	s, err := buildServer("interval", 500, 1, 1, 0, 1, "", "", 0, newRingWriter(8), nil)
	if err != nil {
		t.Fatal(err)
	}
	before := s.ix.Len()
	pad := strings.Repeat(" ", 256<<10-1) + "\n"
	parts := []io.Reader{strings.NewReader(`{"lo": 1, "hi": 2, "weight": 2000000001}` + "\n")}
	for n := 0; n <= maxIngestBody; n += len(pad) {
		parts = append(parts, strings.NewReader(pad))
	}
	parts = append(parts, strings.NewReader(`{"lo": 3, "hi": 4, "weight": 2000000002}`+"\n"))

	rec := httptest.NewRecorder()
	s.handleIngest(rec, httptest.NewRequest(http.MethodPost, "/ingest", io.MultiReader(parts...)))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d (%s), want %d", rec.Code, strings.TrimSpace(rec.Body.String()), http.StatusRequestEntityTooLarge)
	}
	if got := s.ix.Len(); got != before {
		t.Fatalf("index holds %d items after a refused ingest, want %d", got, before)
	}

	// A small body still goes through.
	rec = httptest.NewRecorder()
	s.handleIngest(rec, httptest.NewRequest(http.MethodPost, "/ingest",
		strings.NewReader(`{"lo": 1, "hi": 2, "weight": 2000000001}`+"\n")))
	var resp struct{ Inserted int }
	if err := json.NewDecoder(rec.Body).Decode(&resp); err != nil || rec.Code != http.StatusOK || resp.Inserted != 1 {
		t.Fatalf("small ingest: status %d, inserted %d, err %v", rec.Code, resp.Inserted, err)
	}
}

// TestCheckpointCrashBetweenRenames: a crash after checkpoint renamed
// <dir> to <dir>.old but before it renamed the new snapshot in leaves
// only <dir>.old. The next boot must warm-start from that checkpoint,
// not build a fresh index whose first checkpoint deletes it.
func TestCheckpointCrashBetweenRenames(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "snap")
	s, err := buildServer("interval", 500, 1, 1, 0, 1, dir, "", 0, newRingWriter(8), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(dir, dir+".old"); err != nil {
		t.Fatal(err)
	}

	s, err = buildServer("interval", 7, 1, 1, 0, 1, dir, "", 0, newRingWriter(8), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !s.warmStart || s.ix.Len() != 500 {
		t.Fatalf("boot after the crash: warmStart %v with %d items, want a warm start with 500", s.warmStart, s.ix.Len())
	}
	if err := s.checkpoint(); err != nil {
		t.Fatal(err)
	}
	mf, err := topk.ReadManifest(dir)
	if err != nil || mf.Items != 500 {
		t.Fatalf("checkpoint after recovery: manifest %+v, err %v; want 500 items", mf, err)
	}
}
