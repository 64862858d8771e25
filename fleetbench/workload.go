package main

import (
	"fmt"
	"reflect"

	"repro/internal/fleet"
	"repro/internal/hwblock"
	"repro/internal/obs"
)

// workload is one named set of inputs the benchmark drives through the
// fleet's producer API. README.md gives the reason for each.
type workload struct {
	name    string
	n       int
	variant hwblock.Variant
	// slots is the tenant population: one live session per slot.
	slots int
	// runWords is the length of every PushWords call, in 64-bit words.
	runWords int
	// sessionRuns is the number of PushWords runs in one full session;
	// after its last run a session is detached and its slot starts the
	// next generation.
	sessionRuns int
	// sliced selects bit-sliced ingest (see sliceIngest).
	sliced bool
	// cohort is the number of slots that start their
	// sessions together: a cohort re-registers only once every member's
	// verdict is in, so a bit-sliced cohort of 128 always fills two lane
	// groups.
	cohort int
}

// workloads is the benchmark's fixed workload table.
var workloads = []workload{
	{
		name: "evaluate-n128-light", n: 128, variant: hwblock.Light,
		slots: 1024, runWords: 32, sessionRuns: 64, cohort: 1,
	},
	{
		name: "tiles-n65536-light", n: 65536, variant: hwblock.Light,
		slots: 128, runWords: 64, sessionRuns: 128, sliced: true, cohort: 128,
	},
}

func lookupWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// seqWords is the number of 64-bit words in one test sequence.
func (w *workload) seqWords() int { return w.n / 64 }

// sessionWords is the number of words in one full session.
func (w *workload) sessionWords() int { return w.sessionRuns * w.runWords }

// alignRuns rounds a run count down to whole sequences (at least one
// sequence), so a bit-sliced session always ends on a lane-group boundary.
func (w *workload) alignRuns(runs int) int {
	per := w.seqWords() / w.runWords
	if per <= 1 {
		return max(runs, 1)
	}
	return max(runs/per*per, per)
}

// design returns the workload's testing-block design.
func (w *workload) design() (hwblock.Config, error) {
	return hwblock.NewConfig(w.n, w.variant)
}

// replayConfig is the pool configuration without the ingest-path and
// observability choices, which change no verdict: it is what
// fleet.ReplaySerial runs as the serial reference.
func (w *workload) replayConfig() (fleet.Config, error) {
	d, err := w.design()
	if err != nil {
		return fleet.Config{}, err
	}
	return fleet.Config{Design: d, Alpha: 0.01, Shards: 1}, nil
}

// poolConfig is the configuration every benchmark pool of the workload
// runs: the replay configuration plus an obs registry attached as trngd
// attaches one, and bit-sliced ingest where the workload asks for it.
func (w *workload) poolConfig() (fleet.Config, error) {
	cfg, err := w.replayConfig()
	if err != nil {
		return cfg, err
	}
	cfg.Obs = obs.NewRegistry()
	if w.sliced {
		sliceIngest(&cfg)
	}
	return cfg, nil
}

// sliceIngest is the one place that selects bit-sliced ingest. It sets
// fleet.Config.BitSliced by name, and only while that field exists, so the
// benchmark keeps compiling and running unchanged once the pool decides
// slicing by itself and the field is removed.
func sliceIngest(cfg *fleet.Config) {
	f := reflect.ValueOf(cfg).Elem().FieldByName("BitSliced")
	if f.IsValid() && f.Kind() == reflect.Bool {
		f.SetBool(true)
	}
}

// poolWords is the size of each pre-generated word pool: 8 MiB of words,
// so the producer reads its input from memory rather than from a
// cache-resident buffer.
const poolWords = 1 << 20

// inputs holds every word the benchmark pushes, generated from the
// workload seed before any timing starts.
type inputs struct {
	seed   uint64
	ideal  []uint64 // uniform words
	biased []uint64 // words whose bits are 1 with probability 0.75
}

// splitmix64 is the SplitMix64 output function: a full-period mixer that
// turns a counter into independent-looking 64-bit words.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

func newInputs(seed int64) *inputs {
	in := &inputs{
		seed:   uint64(seed),
		ideal:  make([]uint64, poolWords),
		biased: make([]uint64, poolWords),
	}
	s := splitmix64(in.seed)
	for i := range in.ideal {
		in.ideal[i] = splitmix64(s + uint64(i))
	}
	s = splitmix64(s ^ 0xb1a5ed)
	for i := range in.biased {
		a := splitmix64(s + 2*uint64(i))
		b := splitmix64(s + 2*uint64(i) + 1)
		in.biased[i] = a | b
	}
	return in
}

// hash mixes the seed with a slot, a generation and a salt.
func (in *inputs) hash(slot, gen int, salt uint64) uint64 {
	return splitmix64(in.seed ^ splitmix64(uint64(slot)<<32|uint64(gen)) ^ salt)
}

// biasedSlot reports whether a slot streams a biased source: one slot in
// sixteen, spread over the population so every lane group holds some.
func biasedSlot(slot int) bool { return slot%16 == 15 }

// offset picks a session's first word in its pool, aligned to the run
// length so no run wraps around the pool's end.
func (in *inputs) offset(w *workload, slot, gen int) int {
	return int(in.hash(slot, gen, 0x0ff5e7)%uint64(poolWords/w.runWords)) * w.runWords
}

// session is one tenant registration: a stream handle and the words it is
// due to receive.
type session struct {
	id     int32 // trace session id, unique within a run
	slot   int
	gen    int
	tenant string
	biased bool
	off    int // first word in the pool
	runs   int // planned PushWords runs
	pushed int // runs pushed so far
	words  int // words pushed so far
	stream *fleet.Stream
	// begin is when Register was called; last, the return of the last
	// run's PushWords, starts the verdict-latency clock.
	begin, last int64
	// measured marks a session whose last run fell inside the measured
	// window; only such sessions give latency samples.
	measured bool
	// partial marks a session cut short by the end of the phase.
	partial bool
	// pushErr records a failed PushWords call.
	pushErr error
	// sample selects the session for the serial replay check.
	sample bool
}

// run returns the j-th PushWords run of a session.
func (in *inputs) run(w *workload, s *session, j int) []uint64 {
	pool := in.ideal
	if s.biased {
		pool = in.biased
	}
	o := (s.off + j*w.runWords) % len(pool)
	return pool[o : o+w.runWords]
}

// ops rebuilds the op list of the runs a session pushed, for
// fleet.ReplaySerial.
func (in *inputs) ops(w *workload, s *session) []fleet.Op {
	ops := make([]fleet.Op, s.pushed)
	for j := range ops {
		ops[j] = fleet.Op{Kind: fleet.OpRun, Ws: in.run(w, s, j)}
	}
	return ops
}

// newSession plans one session of a slot. The caller registers it.
func (in *inputs) newSession(w *workload, id int32, slot, gen, runs int) *session {
	return &session{
		id:     id,
		slot:   slot,
		gen:    gen,
		tenant: fmt.Sprintf("tenant-%04d-g%d", slot, gen),
		biased: biasedSlot(slot),
		off:    in.offset(w, slot, gen),
		runs:   runs,
		sample: in.hash(slot, gen, 0x5a3b1e)%8 == 0,
	}
}
