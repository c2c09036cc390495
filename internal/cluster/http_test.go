package cluster

import (
	"net/http"
	"strings"
	"testing"

	"abg/internal/server"
)

// TestFrontDoorRejectsOverlongName: the front door validates a submission
// as a plain daemon does, so a name over 128 bytes gets a 400 and admits
// nothing, while a name of exactly 128 bytes is accepted.
func TestFrontDoorRejectsOverlongName(t *testing.T) {
	fd := startCluster(t, t.TempDir())
	var bad server.ErrorDTO
	req := server.JobRequest{Kind: "serial", Quanta: 1, Name: strings.Repeat("n", 129)}
	if code := postJSON(t, fd.base+"/api/v1/jobs", req, &bad); code != http.StatusBadRequest ||
		!strings.Contains(bad.Error, "name longer than 128 bytes") {
		t.Fatalf("129-byte name: status %d, err %q; want 400", code, bad.Error)
	}
	req.Name = req.Name[:128]
	var ack SubmitResponse
	if code := postJSON(t, fd.base+"/api/v1/jobs", req, &ack); code != http.StatusAccepted || len(ack.IDs) != 1 {
		t.Fatalf("128-byte name: status %d, ack %+v; want 202 for one job", code, ack)
	}
	if code := postJSON(t, fd.base+"/api/v1/drain?wait=1", nil, nil); code != http.StatusOK {
		t.Fatalf("drain: status %d", code)
	}
	if err := fd.wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
}
