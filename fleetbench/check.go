package main

import (
	"fmt"
	"reflect"

	"repro/internal/fleet"
)

// checkReport verifies one session's StreamReport against what the
// benchmark pushed: the batch accounting identity, the batch and sequence
// counts implied by the pushed words, and — for a biased tenant that
// evaluated at least biasEvidenceBits — at least one failing sequence.
func checkReport(w *workload, s *session, r *fleet.StreamReport) error {
	if r.Tenant != s.tenant {
		return fmt.Errorf("%s: report names tenant %q", s.tenant, r.Tenant)
	}
	if r.OfferedBatches != r.AcceptedBatches+r.ShedBatches+r.SampledOutBatches+r.DiscardedBatches {
		return fmt.Errorf("%s: batch accounting broken: offered %d != accepted %d + shed %d + sampled-out %d + discarded %d",
			s.tenant, r.OfferedBatches, r.AcceptedBatches, r.ShedBatches, r.SampledOutBatches, r.DiscardedBatches)
	}
	words := int64(s.words)
	if r.OfferedBatches != words {
		return fmt.Errorf("%s: %d batches offered, %d pushed", s.tenant, r.OfferedBatches, words)
	}
	bits := words * 64
	if want := int(bits / int64(w.n)); r.Sequences != want {
		return fmt.Errorf("%s: %d sequences evaluated, want %d", s.tenant, r.Sequences, want)
	}
	if r.Passed+r.Failed != r.Sequences {
		return fmt.Errorf("%s: %d passed + %d failed != %d sequences", s.tenant, r.Passed, r.Failed, r.Sequences)
	}
	if want := int(bits % int64(w.n)); r.PartialBits != want {
		return fmt.Errorf("%s: %d partial bits at detach, want %d", s.tenant, r.PartialBits, want)
	}
	if s.biased && int64(r.Sequences)*int64(w.n) >= biasEvidenceBits && r.Failed == 0 {
		return fmt.Errorf("%s: biased tenant recorded no failing sequence in %d", s.tenant, r.Sequences)
	}
	return nil
}

// biasEvidenceBits is the fewest evaluated bits after which a biased
// tenant must have recorded a failing sequence. The biased source (bits
// are 1 with probability 0.75) is not certain to fail a short sequence: a
// single 128-bit sequence passes every light test with probability about
// 2e-4, which over the 64 biased tenants of an evaluate-n128-light setup
// is about 1 % of seeds. 1024 bits are either eight such sequences, all
// passing with probability below 1e-29, or one sequence of n ≥ 1024.
// Shorter biased evidence is judged in bulk by checkBiasedShare.
const biasEvidenceBits = 1024

// checkBiasedShare checks that most of the sequences the biased tenants
// of one setup evaluated failed; each fails with probability above 0.999.
func checkBiasedShare(sequences, failed int) error {
	if 2*failed <= sequences {
		return fmt.Errorf("only %d of %d biased sequences failed", failed, sequences)
	}
	return nil
}

// compareReports checks a fleet report against the serial reference run of
// the same words, verdict for verdict.
func compareReports(got, want *fleet.StreamReport) error {
	type counts struct {
		Sequences, Passed, Failed                   int
		Offered, Accepted, Shed, Sampled, Discarded int64
		BitsSeen                                    int64
		PartialBits                                 int
		Condition                                   string
		Breaker, Alarm                              bool
		OnlineScore                                 float64
		OnlineAlarmed                               bool
		OnlineDetectedAt                            int64
	}
	summary := func(r *fleet.StreamReport) counts {
		return counts{
			r.Sequences, r.Passed, r.Failed,
			r.OfferedBatches, r.AcceptedBatches, r.ShedBatches, r.SampledOutBatches, r.DiscardedBatches,
			r.BitsSeen, r.PartialBits, r.Condition.String(), r.BreakerTripped, r.AlarmLatched,
			r.OnlineScore, r.OnlineAlarmed, r.OnlineDetectedAt,
		}
	}
	if g, w := summary(got), summary(want); g != w {
		return fmt.Errorf("%s: fleet %+v, serial replay %+v", got.Tenant, g, w)
	}
	if len(got.Reports) != len(want.Reports) {
		return fmt.Errorf("%s: %d retained sequence reports, serial replay %d", got.Tenant, len(got.Reports), len(want.Reports))
	}
	for i := range got.Reports {
		if !reflect.DeepEqual(got.Reports[i], want.Reports[i]) {
			return fmt.Errorf("%s: sequence %d differs from the serial replay", got.Tenant, got.Reports[i].Index)
		}
	}
	return nil
}

// verified is a sampled session kept for the serial replay check.
type verified struct {
	s   *session
	rep fleet.StreamReport
}

// replayCheck runs every sampled session through fleet.ReplaySerial on
// the same words and compares verdicts. It returns the batches of the
// sessions that failed and their errors.
func replayCheck(w *workload, in *inputs, samples []verified) (failedBatches int64, errs []error) {
	cfg, err := w.replayConfig()
	if err != nil {
		return 0, []error{err}
	}
	for _, v := range samples {
		want, err := fleet.ReplaySerial(cfg, v.s.tenant, in.ops(w, v.s))
		if err == nil {
			err = compareReports(&v.rep, &want)
		}
		if err != nil {
			failedBatches += v.rep.AcceptedBatches
			errs = append(errs, err)
		}
	}
	return failedBatches, errs
}
