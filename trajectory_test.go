package ctcomm_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestBenchTrajectoriesAreJSON parses every checked-in BENCH_*.json
// trajectory: scripts/bench_record.sh appends to them and
// scripts/bench_gate.sh reads them with grep, so nothing else would
// notice an entry that is no longer valid JSON.
func TestBenchTrajectoriesAreJSON(t *testing.T) {
	files, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no BENCH_*.json trajectories found")
	}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		var entries []struct {
			Name    string  `json:"name"`
			Commit  string  `json:"commit"`
			NsPerOp float64 `json:"ns_per_op"`
		}
		if err := json.Unmarshal(raw, &entries); err != nil {
			t.Errorf("%s: %v", f, err)
			continue
		}
		for i, e := range entries {
			if e.Name == "" || e.Commit == "" || e.NsPerOp <= 0 {
				t.Errorf("%s entry %d: missing name, commit or ns_per_op: %+v", f, i, e)
			}
		}
	}
}
