package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"testing"

	"repro/internal/extract"
)

// TestExtractMaxPathLenLimit pins the key-path length ceiling over HTTP:
// the key-path DP keeps maxPathLen layers of per-node parents, so an
// unbounded value could ask for gigabytes. The limit itself is accepted;
// anything above it is a 400 that names the limit.
func TestExtractMaxPathLenLimit(t *testing.T) {
	_, ts := newTestServer(t)
	createSynthetic(t, ts, "dblp")
	for _, tc := range []struct {
		maxPathLen int
		want       int
	}{
		{extract.MaxPathLenLimit, http.StatusOK},
		{extract.MaxPathLenLimit + 1, http.StatusBadRequest},
		{1000000, http.StatusBadRequest},
	} {
		body := fmt.Sprintf(`{"sources":[1,2],"budget":8,"maxPathLen":%d}`, tc.maxPathLen)
		resp, err := http.Post(ts.URL+"/sessions/dblp/extract", "application/json",
			bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("maxPathLen %d: status %d (%s), want %d", tc.maxPathLen, resp.StatusCode, b, tc.want)
		}
		if tc.want == http.StatusBadRequest && !bytes.Contains(b, []byte(strconv.Itoa(extract.MaxPathLenLimit))) {
			t.Fatalf("maxPathLen %d: error %s does not name the limit", tc.maxPathLen, b)
		}
	}
}
