package service_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"skewjoin/internal/cluster"
	"skewjoin/internal/service"
)

// TestJoinRejectsRemovedField posts, to the daemon and to the router, the
// /join body of a client that still sends the simulator's host worker
// count, a request field that no longer exists
// (testdata/join_removed_field.json). Both decoders reject unknown
// fields, so each must answer 400 naming the field, rather than run the
// join as if the field were not there.
func TestJoinRejectsRemovedField(t *testing.T) {
	body, err := os.ReadFile("testdata/join_removed_field.json")
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]any
	if err := json.Unmarshal(body, &fields); err != nil {
		t.Fatal(err)
	}
	for _, known := range []string{"r", "s", "algorithm"} {
		delete(fields, known)
	}
	if len(fields) != 1 {
		t.Fatalf("fixture has %d fields besides r, s and algorithm, want the removed one alone", len(fields))
	}
	var removed string
	for f := range fields {
		removed = f
	}
	want := fmt.Sprintf("bad request body: json: unknown field %q", removed)

	daemon := httptest.NewServer(service.New(service.Config{ThreadBudget: 2}))
	defer daemon.Close()
	rt, err := cluster.NewRouter(cluster.Config{ShardURLs: []string{daemon.URL}})
	if err != nil {
		t.Fatal(err)
	}
	router := httptest.NewServer(rt)
	defer router.Close()

	for _, srv := range []struct{ name, url string }{{"skewjoind", daemon.URL}, {"skewrouter", router.URL}} {
		t.Run(srv.name, func(t *testing.T) {
			resp, err := http.Post(srv.url+"/join", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var e service.ErrorResponse
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusBadRequest || e.Error != want {
				t.Errorf("status %d, error %q; want %d, %q", resp.StatusCode, e.Error, http.StatusBadRequest, want)
			}
		})
	}
}
