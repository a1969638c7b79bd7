package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// Every registered experiment must run clean in quick mode and produce its
// table. This is the repository's end-to-end reproduction check.
func TestAllExperimentsQuick(t *testing.T) {
	all := All()
	want := []string{"ASAP", "CE", "CLICK", "COPART", "FIG1", "FIG2", "FIG3",
		"HIST", "INSITU", "LOAD", "PART", "PROV", "SKEW", "SSDB", "STORE", "UNC", "VER"}
	if len(all) != len(want) {
		t.Fatalf("registered %d experiments, want %d", len(all), len(want))
	}
	for i, e := range all {
		if e.ID != want[i] {
			t.Fatalf("experiment %d = %s, want %s", i, e.ID, want[i])
		}
	}
	for _, e := range all {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(&buf, true); err != nil {
				t.Fatalf("%s failed: %v\noutput:\n%s", e.ID, err, buf.String())
			}
			if buf.Len() == 0 {
				t.Fatalf("%s produced no output", e.ID)
			}
		})
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("FIG1"); !ok {
		t.Error("FIG1 missing")
	}
	if _, ok := ByID("NOPE"); ok {
		t.Error("unknown id found")
	}
}

func TestFigureOutputsMentionExpectations(t *testing.T) {
	for _, id := range []string{"FIG1", "FIG2", "FIG3"} {
		e, _ := ByID(id)
		var buf bytes.Buffer
		if err := e.Run(&buf, true); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !strings.Contains(buf.String(), "paper expects") {
			t.Errorf("%s output lacks the expected-result line:\n%s", id, buf.String())
		}
	}
}
