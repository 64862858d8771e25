package main

import (
	"strings"
	"testing"

	"repro/internal/fleet"
	"repro/internal/sweval"
)

// runSession pushes a few runs of one session through a real pool and
// returns the session and its report.
func runSession(t *testing.T, w *workload, in *inputs, slot, runs int) (*session, fleet.StreamReport) {
	t.Helper()
	cfg, err := w.poolConfig()
	if err != nil {
		t.Fatal(err)
	}
	pool, err := fleet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Shutdown()
	s := in.newSession(w, 1, slot, 0, runs)
	if s.stream, err = pool.Register(s.tenant); err != nil {
		t.Fatal(err)
	}
	for s.pushed < runs {
		if err := s.stream.PushWords(in.run(w, s, s.pushed)); err != nil {
			t.Fatal(err)
		}
		s.pushed++
		s.words += w.runWords
	}
	return s, s.stream.Detach()
}

// plantVerdict returns a copy of r whose first retained sequence report
// has its first verdict flipped, leaving r itself untouched.
func plantVerdict(r fleet.StreamReport) fleet.StreamReport {
	r.Reports = append(r.Reports[:0:0], r.Reports...)
	rep := *r.Reports[0].Report
	rep.Verdicts = append([]sweval.Verdict(nil), rep.Verdicts...)
	rep.Verdicts[0].Pass = !rep.Verdicts[0].Pass
	r.Reports[0].Report = &rep
	return r
}

func TestCheckerAcceptsFleetReports(t *testing.T) {
	w, err := lookupWorkload("evaluate-n128-light")
	if err != nil {
		t.Fatal(err)
	}
	in := newInputs(7)
	for _, slot := range []int{0, 15} { // an ideal and a biased tenant
		s, rep := runSession(t, w, in, slot, 3)
		if err := checkReport(w, s, &rep); err != nil {
			t.Fatalf("slot %d: %v", slot, err)
		}
		if failed, errs := replayCheck(w, in, []verified{{s: s, rep: rep}}); failed != 0 || len(errs) != 0 {
			t.Fatalf("slot %d: serial replay disagrees: %v", slot, errs)
		}
	}
}

func TestCheckerRejectsPlantedMismatch(t *testing.T) {
	w, err := lookupWorkload("evaluate-n128-light")
	if err != nil {
		t.Fatal(err)
	}
	in := newInputs(7)
	s, rep := runSession(t, w, in, 3, 2)

	planted := plantVerdict(rep)
	failed, errs := replayCheck(w, in, []verified{{s: s, rep: planted}})
	if len(errs) != 1 || failed != rep.AcceptedBatches {
		t.Fatalf("planted verdict: %d failed batches, errors %v; want one error failing %d batches", failed, errs, rep.AcceptedBatches)
	}
	if !strings.Contains(errs[0].Error(), "differs from the serial replay") {
		t.Fatalf("planted verdict reported as %v", errs[0])
	}

	counts := rep
	counts.Failed++
	counts.Passed--
	if err := compareReports(&counts, &rep); err == nil {
		t.Fatal("a moved pass/fail count was not reported")
	}

	for name, mutate := range map[string]func(*fleet.StreamReport){
		"accounting identity": func(r *fleet.StreamReport) { r.ShedBatches++ },
		"offered batches":     func(r *fleet.StreamReport) { r.OfferedBatches++; r.AcceptedBatches++ },
		"sequence count":      func(r *fleet.StreamReport) { r.Sequences--; r.Passed-- },
		"pass+fail":           func(r *fleet.StreamReport) { r.Passed++ },
		"partial bits":        func(r *fleet.StreamReport) { r.PartialBits = 64 },
		"tenant":              func(r *fleet.StreamReport) { r.Tenant = "someone-else" },
	} {
		bad := rep
		mutate(&bad)
		if err := checkReport(w, s, &bad); err == nil {
			t.Errorf("%s: planted mismatch accepted", name)
		}
	}
}

func TestCheckerRejectsBiasedTenantWithoutFailures(t *testing.T) {
	w, err := lookupWorkload("evaluate-n128-light")
	if err != nil {
		t.Fatal(err)
	}
	in := newInputs(7)
	s, rep := runSession(t, w, in, 15, 1)
	if !s.biased || rep.Failed == 0 {
		t.Fatalf("slot 15 should be a biased tenant with failing sequences: biased=%v failed=%d", s.biased, rep.Failed)
	}
	rep.Passed, rep.Failed = rep.Sequences, 0
	if err := checkReport(w, s, &rep); err == nil {
		t.Fatal("a biased tenant with no failing sequence was accepted")
	}
}

// TestCheckerToleratesShortBiasedPass pins a setup sequence of a biased
// tenant that passes every light test (seed 97, slot 1007): one 128-bit
// sequence is not enough evidence on its own, so checkReport accepts it
// and only the setup's share of failing biased sequences is judged.
func TestCheckerToleratesShortBiasedPass(t *testing.T) {
	w, err := lookupWorkload("evaluate-n128-light")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := w.replayConfig()
	if err != nil {
		t.Fatal(err)
	}
	in := newInputs(97)
	s := in.newSession(w, 1, 1007, 0, 0)
	s.words = w.seqWords()
	rep, err := fleet.ReplaySerial(cfg, s.tenant, []fleet.Op{{Kind: fleet.OpRun, Ws: in.run(w, s, 0)[:s.words]}})
	if err != nil {
		t.Fatal(err)
	}
	if !s.biased || rep.Sequences != 1 || rep.Failed != 0 {
		t.Fatalf("want a biased tenant with one passing sequence: biased=%v sequences=%d failed=%d", s.biased, rep.Sequences, rep.Failed)
	}
	if err := checkReport(w, s, &rep); err != nil {
		t.Fatal(err)
	}
	if err := checkBiasedShare(64, 63); err != nil {
		t.Fatal(err)
	}
	if err := checkBiasedShare(64, 32); err == nil {
		t.Fatal("a setup where half the biased sequences passed was accepted")
	}
}
