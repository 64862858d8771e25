package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"repro/internal/fleet"
)

// clock reads monotonic nanoseconds since the run's base instant. Every
// timestamp of a run (spans, slice marks, latencies) uses one clock.
type clock struct{ base time.Time }

func (c clock) now() int64 { return int64(time.Since(c.base)) }

// maxRSSMB returns the process's peak resident set size in MiB (Linux
// reports ru_maxrss in KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}

// subWindows is the number of equal slices the measured window is cut
// into. Throughput, CPU per word and latency percentiles are computed per
// slice and reported as the median over the slices (p90 latency: the
// lower quartile, see p90Latency), so a few seconds of interference from
// outside the process move a run's figure less than they would move a
// whole-window mean.
const subWindows = 30

// mark is the generator's snapshot at a slice boundary.
type mark struct {
	t, words, cpu int64
}

// latSample is one verdict latency and the time its clock started.
type latSample struct {
	at, d int64
}

// cpuNow returns the process's user+sys CPU time in ns.
func cpuNow() int64 {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer; a zero
	// reading would only zero the CPU figure, not hide a defect.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// allocBytes returns the bytes the process has allocated so far.
func allocBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// maxSamples caps the sessions a phase keeps for the serial replay check
// (plus one biased session, always kept).
const maxSamples = 24

// verdicts is what the detacher goroutine collects. It owns the value until
// it closes its output channel; the generator reads it only after that.
type verdicts struct {
	lat          []latSample // verdict latencies of measured sessions
	delivered    int64       // batches accepted by sessions that passed every check
	errs         []error
	samples      []verified
	biasedSample bool
	sessions     int
}

// phase is one pool driven by one generator goroutine (the caller's) and
// one detacher goroutine that only waits in Detach.
type phase struct {
	b     *bench
	pool  *fleet.Pool
	gen   *spanLog // generator spans; nil when untraced
	det   *spanLog // detacher spans; nil when untraced
	jobs  chan *session
	freed chan *session
	v     verdicts // detacher-owned, see verdicts

	measuring    bool
	measureStart int64
	deadline     int64
	sub          int64 // slice length, ns
	marks        []mark
	allocBefore  uint64
	words        int64 // words pushed inside the measured window
	offered      int64 // words pushed in the whole phase
}

// phaseResult is one finished measured phase.
type phaseResult struct {
	words        int64
	sub          int64
	marks        []mark
	window       int64 // ns from the start of the measured window to the end of the drain
	pushWindow   int64 // ns of the measured window the generator pushed in
	measureStart int64
	alloc        uint64
	offered      int64
	v            verdicts
	logs         []*spanLog
}

// sliceRates returns each slice's monitored bits per second, in Mbit/s.
func (r *phaseResult) sliceRates() []float64 {
	xs := make([]float64, 0, len(r.marks))
	for i := 1; i < len(r.marks); i++ {
		a, b := r.marks[i-1], r.marks[i]
		xs = append(xs, float64((b.words-a.words)*64)/float64(b.t-a.t)*1e3)
	}
	return xs
}

// mbitPerS is the median over the slices of the monitored bits per second.
func (r *phaseResult) mbitPerS() float64 { return median(r.sliceRates()) }

// cpuPerWord is the median over the slices of the process CPU time per
// pushed word, in ns.
func (r *phaseResult) cpuPerWord() float64 {
	xs := make([]float64, 0, len(r.marks))
	for i := 1; i < len(r.marks); i++ {
		a, b := r.marks[i-1], r.marks[i]
		xs = append(xs, float64(b.cpu-a.cpu)/float64(b.words-a.words))
	}
	return median(xs)
}

// latency returns each slice's p-th percentile verdict latency in ms and
// the number of samples; a slice without samples is left out.
func (r *phaseResult) latency(p float64) (slices []float64, n int) {
	per := make([][]float64, subWindows)
	for _, l := range r.v.lat {
		i := int((l.at - r.measureStart) / r.sub)
		if l.at < r.measureStart || i >= subWindows {
			continue
		}
		per[i] = append(per[i], float64(l.d)/1e6)
		n++
	}
	for _, xs := range per {
		if len(xs) > 0 {
			slices = append(slices, percentile(xs, p))
		}
	}
	return slices, n
}

// p90Latency is the lower quartile of the slices' p90 verdict latencies.
// A burst of contention from outside the process easily delays a tenth of
// a slice's verdicts, so it moves that slice's p90 far more than its
// median; the quieter slices measure the program's own tail.
func p90Latency(slices []float64) float64 {
	q1, _, _ := quartiles(append([]float64(nil), slices...))
	return q1
}

func newPhase(b *bench, traced bool) (*phase, error) {
	cfg, err := b.w.poolConfig()
	if err != nil {
		return nil, err
	}
	pool, err := fleet.New(cfg)
	if err != nil {
		return nil, err
	}
	p := &phase{b: b, pool: pool}
	if traced {
		p.gen, p.det = &spanLog{}, &spanLog{}
	}
	return p, nil
}

// register admits a session's tenant.
func (p *phase) register(s *session) error {
	t0 := p.b.clk.now()
	st, err := p.pool.Register(s.tenant)
	p.gen.add(spanRegister, s.id, t0, p.b.clk.now())
	if err != nil {
		return fmt.Errorf("register %s: %w", s.tenant, err)
	}
	s.begin, s.stream = t0, st
	return nil
}

// push offers a session's next k words (one run, or the first k words of
// it) through PushWords.
func (p *phase) push(s *session, k int) {
	ws := p.b.in.run(p.b.w, s, s.pushed)[:k]
	var t0 int64
	if p.gen != nil {
		t0 = p.b.clk.now()
	}
	err := s.stream.PushWords(ws)
	if p.gen != nil {
		p.gen.add(spanPushWords, s.id, t0, p.b.clk.now())
	}
	p.offered += int64(k)
	if p.measuring {
		p.words += int64(k)
	}
	if err != nil && s.pushErr == nil {
		s.pushErr = fmt.Errorf("%s: PushWords: %w", s.tenant, err)
	}
	s.pushed++
	s.words += k
}

// startDetacher starts the detacher goroutine; it exits once jobs is
// closed and every queued session is settled, then closes freed. Both
// channels hold one entry per slot: a slot has at most one session
// awaiting its verdict, so neither side ever blocks there.
func (p *phase) startDetacher() {
	p.jobs = make(chan *session, p.b.w.slots)
	p.freed = make(chan *session, p.b.w.slots)
	go p.detacher()
}

func (p *phase) detacher() {
	defer close(p.freed)
	for s := range p.jobs {
		t0 := p.b.clk.now()
		rep := s.stream.Detach()
		t1 := p.b.clk.now()
		p.det.add(spanDetach, s.id, t0, t1)
		p.det.add(spanSession, s.id, s.begin, t1)
		p.settle(s, &rep, t1)
		p.freed <- s
	}
}

// settle checks a detached session's report and records its verdict
// latency (detacher goroutine).
func (p *phase) settle(s *session, rep *fleet.StreamReport, done int64) {
	v := &p.v
	v.sessions++
	err := s.pushErr
	if err == nil {
		err = checkReport(p.b.w, s, rep)
	}
	if err != nil {
		v.errs = append(v.errs, err)
		return
	}
	v.delivered += rep.AcceptedBatches
	if s.measured && !s.partial {
		v.lat = append(v.lat, latSample{at: s.last, d: done - s.last})
	}
	keepBiased := s.biased && !v.biasedSample && rep.Sequences > 0
	if keepBiased || (s.sample && len(v.samples) < maxSamples) {
		v.biasedSample = v.biasedSample || keepBiased
		v.samples = append(v.samples, verified{s: s, rep: *rep})
	}
}

// submit hands a finished session to the detacher, settling freed
// sessions while the job queue is full so neither goroutine can wait on
// the other. After the hand-off the generator yields its processor: the
// woken detacher is queued behind the generator on the same processor,
// and a generator that does not block would otherwise hold it there until
// the scheduler preempts it, adding the benchmark's own scheduling delay
// to the verdict latency.
func (p *phase) submit(s *session, onFreed func(*session)) {
	for {
		select {
		case p.jobs <- s:
			runtime.Gosched()
			return
		case f := <-p.freed:
			onFreed(f)
		}
	}
}

// drainFreed settles every freed session already waiting.
func (p *phase) drainFreed(onFreed func(*session)) {
	for {
		select {
		case f := <-p.freed:
			onFreed(f)
		default:
			return
		}
	}
}

// begin opens the measured window, which closes once the generator has
// passed the last slice boundary, at or just after p.deadline.
func (p *phase) begin(t int64) {
	p.allocBefore = allocBytes()
	p.measuring = true
	p.measureStart = t
	p.sub = (p.deadline - t) / subWindows
	p.marks = append(make([]mark, 0, subWindows+1), mark{t: t, cpu: cpuNow()})
}

// tick records a slice boundary once the generator has passed it.
func (p *phase) tick(t int64) {
	if p.measuring && len(p.marks) <= subWindows && t >= p.measureStart+int64(len(p.marks))*p.sub {
		p.marks = append(p.marks, mark{t: t, words: p.words, cpu: cpuNow()})
	}
}

// finish detaches every session still in flight, waits for the detacher
// and the pool, and closes the measured window.
func (p *phase) finish(inFlight []*session) (*phaseResult, error) {
	pushEnd := p.b.clk.now()
	p.measuring = false
	for _, s := range inFlight {
		if s != nil {
			s.partial = true
			p.submit(s, func(*session) {})
		}
	}
	close(p.jobs)
	for range p.freed {
	}
	end := p.b.clk.now()
	alloc := allocBytes()
	left := p.pool.Shutdown()
	r := &phaseResult{
		words:        p.words,
		sub:          p.sub,
		marks:        p.marks,
		window:       end - p.measureStart,
		pushWindow:   pushEnd - p.measureStart,
		measureStart: p.measureStart,
		alloc:        alloc - p.allocBefore,
		offered:      p.offered,
		v:            p.v,
	}
	if p.gen != nil {
		r.logs = []*spanLog{p.gen, p.det}
	}
	if len(left) > 0 {
		return r, fmt.Errorf("%d streams still registered after every session was detached", len(left))
	}
	if len(r.marks) != subWindows+1 {
		return r, fmt.Errorf("measured window ended after %d of %d slices", len(r.marks)-1, subWindows)
	}
	for i := 1; i < len(r.marks); i++ {
		if r.marks[i].words == r.marks[i-1].words {
			return r, fmt.Errorf("no words pushed in slice %d of the measured window", i)
		}
	}
	return r, nil
}

// closedLoop pushes round-robin as fast as the pool accepts. Each slot is
// a closed-loop client: once its session's last run is pushed, the slot
// waits for that session's verdict (Detach, on the detacher goroutine)
// before its cohort starts the next generation. First-generation sessions
// are shortened by cohort so that cohorts finish at evenly spread times.
func (p *phase) closedLoop(warm, dur time.Duration) (*phaseResult, error) {
	b, w := p.b, p.b.w
	cohorts := w.slots / w.cohort
	slots := make([]*session, w.slots)
	gens := make([]int, w.slots)
	done := make([]int, cohorts)
	var regErr error
	startCohort := func(c, runs int) {
		for i := c * w.cohort; i < (c+1)*w.cohort; i++ {
			s := b.newSession(i, gens[i], runs)
			gens[i]++
			if err := p.register(s); err != nil {
				if regErr == nil {
					regErr = err
				}
				continue
			}
			slots[i] = s
		}
	}
	// Cohorts re-register at round boundaries; ready queues them.
	var ready []int
	onFreed := func(s *session) {
		c := s.slot / w.cohort
		if done[c]++; done[c] == w.cohort {
			done[c] = 0
			ready = append(ready, c)
		}
	}
	p.startDetacher()
	// Cohorts c and c+k share a first-generation length, so cohorts that
	// finish in the same round are k cohorts apart, not adjacent.
	k := min(cohorts, w.sessionRuns)
	for c := 0; c < cohorts; c++ {
		startCohort(c, w.alignRuns(w.sessionRuns-(c%k)*(w.sessionRuns/k)))
	}
	t0 := b.clk.now()
	warmEnd := t0 + int64(warm)
	p.deadline = warmEnd + int64(dur)
loop:
	for regErr == nil {
		active := 0
		for i, s := range slots {
			if s == nil {
				continue
			}
			active++
			t := b.clk.now()
			if !p.measuring && t >= warmEnd {
				p.begin(t)
			}
			p.tick(t)
			if len(p.marks) == subWindows+1 {
				break loop
			}
			p.push(s, w.runWords)
			if s.pushed == s.runs || s.pushErr != nil {
				s.last, s.measured = b.clk.now(), p.measuring
				slots[i] = nil
				p.submit(s, onFreed)
			}
		}
		if active == 0 {
			onFreed(<-p.freed)
		}
		p.drainFreed(onFreed)
		for _, c := range ready {
			startCohort(c, w.sessionRuns)
		}
		ready = ready[:0]
	}
	if !p.measuring && regErr == nil {
		regErr = fmt.Errorf("measured window never opened")
	}
	r, err := p.finish(slots)
	if regErr != nil {
		return r, regErr
	}
	return r, err
}

// setupOnce times one cold start: a fresh pool, the whole initial
// population registered, one sequence pushed per tenant, and every
// tenant's StreamReport in hand. It starts after a forced GC that also
// returns freed memory to the OS, so earlier garbage is not collected on
// its clock and every start takes its memory fresh from the OS, as a new
// process would.
func (b *bench) setupOnce(log *spanLog) (time.Duration, error) {
	w := b.w
	cfg, err := w.poolConfig()
	if err != nil {
		return 0, err
	}
	sessions := make([]*session, w.slots)
	for i := range sessions {
		sessions[i] = b.newSession(i, 0, 0)
	}
	debug.FreeOSMemory()
	t0 := b.clk.now()
	pool, err := fleet.New(cfg)
	if err != nil {
		return 0, err
	}
	p := &phase{b: b, pool: pool, gen: log}
	for _, s := range sessions {
		if err := p.register(s); err != nil {
			pool.Shutdown()
			return 0, err
		}
	}
	k := min(w.runWords, w.seqWords())
	for j := 0; j < w.seqWords()/k; j++ {
		for _, s := range sessions {
			p.push(s, k)
		}
	}
	reps := make([]fleet.StreamReport, len(sessions))
	for i, s := range sessions {
		d0 := b.clk.now()
		reps[i] = s.stream.Detach()
		d1 := b.clk.now()
		log.add(spanDetach, s.id, d0, d1)
		log.add(spanSession, s.id, s.begin, d1)
	}
	elapsed := time.Duration(b.clk.now() - t0)
	pool.Shutdown()
	var biasedSeqs, biasedFailed int
	for i, s := range sessions {
		err := s.pushErr
		if err == nil {
			err = checkReport(w, s, &reps[i])
		}
		if err == nil && reps[i].Sequences != 1 {
			err = fmt.Errorf("%s: setup evaluated %d sequences, want 1", s.tenant, reps[i].Sequences)
		}
		if err != nil {
			return elapsed, fmt.Errorf("setup: %w", err)
		}
		if s.biased {
			biasedSeqs += reps[i].Sequences
			biasedFailed += reps[i].Failed
		}
	}
	if err := checkBiasedShare(biasedSeqs, biasedFailed); err != nil {
		return elapsed, fmt.Errorf("setup: %w", err)
	}
	return elapsed, nil
}
