package main

import (
	"reflect"
	"testing"
	"time"
)

// TestStaggeredFirstGeneration checks that shortened first-generation
// sessions stay whole sequences, so bit-sliced lanes stay aligned.
func TestStaggeredFirstGeneration(t *testing.T) {
	w, err := lookupWorkload("tiles-n65536-light")
	if err != nil {
		t.Fatal(err)
	}
	if got := w.alignRuns(100); got != 96 {
		t.Errorf("alignRuns(100) = %d, want 96 (six 16-run sequences)", got)
	}
	if got := w.alignRuns(3); got != 16 {
		t.Errorf("alignRuns(3) = %d, want one whole sequence", got)
	}
	e, err := lookupWorkload("evaluate-n128-light")
	if err != nil {
		t.Fatal(err)
	}
	if got := e.alignRuns(7); got != 7 {
		t.Errorf("alignRuns(7) = %d on n=128, where every run holds whole sequences", got)
	}
}

// TestPhasesRunClean drives every workload's loop briefly, traced, with
// the generator and the detacher running concurrently (run it with -race),
// and requires every detached session to pass its checks.
func TestPhasesRunClean(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			b := &bench{w: w, in: newInputs(3), clk: clock{base: time.Now()}}
			p, err := newPhase(b, true)
			if err != nil {
				t.Fatal(err)
			}
			r, err := p.closedLoop(20*time.Millisecond, 150*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if len(r.v.errs) > 0 {
				t.Fatalf("%d sessions failed their checks, first: %v", len(r.v.errs), r.v.errs[0])
			}
			if r.v.delivered != r.offered {
				t.Fatalf("%d of %d batches delivered", r.v.delivered, r.offered)
			}
			if r.words == 0 || r.v.sessions == 0 {
				t.Fatalf("nothing measured: %d words, %d sessions", r.words, r.v.sessions)
			}
			if len(durations(r.logs, spanPushWords, 0, 1<<62)) == 0 {
				t.Fatal("traced phase recorded no PushWords spans")
			}
		})
	}
}

// TestSliceIngestSelectsBitSlicedPools checks the one place that selects
// bit-sliced ingest, through the pool's own normalized configuration.
func TestSliceIngestSelectsBitSlicedPools(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		cfg, err := w.poolConfig()
		if err != nil {
			t.Fatal(err)
		}
		f := reflect.ValueOf(cfg).FieldByName("BitSliced")
		if !f.IsValid() {
			t.Skip("fleet.Config has no BitSliced field; the pool chooses its ingest path")
		}
		if f.Bool() != w.sliced {
			t.Errorf("%s: BitSliced = %v, want %v", w.name, f.Bool(), w.sliced)
		}
	}
}
