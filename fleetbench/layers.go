package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/hwblock"
	"repro/internal/hwfast"
	"repro/internal/hwslice"
	"repro/internal/online"
	"repro/internal/sweval"
)

// The layer replay runs the workload's own input single-threaded through
// each layer's public functions, outside the fleet: it is the
// stream-processing baseline the traced run sets the fleet against.

// replayLanes is the number of sessions the layer replay uses: one full
// hwslice lane group.
const replayLanes = 64

// minLayerTime is how long each layer measurement repeats its input at
// least; the reported figure is the median over the repetitions.
const minLayerTime = 400 * time.Millisecond

// layerLanes returns the words of the first replayLanes full sessions of
// the workload (slot k mod slots, generation k / slots), one lane each.
func (b *bench) layerLanes() [][]uint64 {
	w := b.w
	lanes := make([][]uint64, replayLanes)
	for k := range lanes {
		s := b.in.newSession(w, 0, k%w.slots, k/w.slots, w.sessionRuns)
		ws := make([]uint64, 0, w.sessionWords())
		for j := 0; j < w.sessionRuns; j++ {
			ws = append(ws, b.in.run(w, s, j)...)
		}
		lanes[k] = ws
	}
	return lanes
}

// repeat runs one measurement until minLayerTime has passed and at least
// three repetitions are in, and returns the median of its results.
func repeat(f func() (float64, error)) (float64, error) {
	var xs []float64
	t0 := time.Now()
	for len(xs) < 3 || time.Since(t0) < minLayerTime {
		x, err := f()
		if err != nil {
			return 0, err
		}
		xs = append(xs, x)
	}
	return median(xs), nil
}

// layerMetrics replays the workload's input through every layer and
// adds the per-layer metrics to m.
func (b *bench) layerMetrics(m map[string]metric) error {
	design, err := b.w.design()
	if err != nil {
		return err
	}
	cv, err := sweval.NewCriticalValues(design, 0.01)
	if err != nil {
		return err
	}
	lanes := b.layerLanes()
	words := 0
	for _, l := range lanes {
		words += len(l)
	}
	seqs := words / b.w.seqWords()

	// core: Monitor.FeedWord through one monitor that keeps the fleet's
	// report history.
	var allocPerSeq []float64
	feed, err := repeat(func() (float64, error) {
		mon, err := core.NewMonitorWithValues(design, cv)
		if err != nil {
			return 0, err
		}
		mon.KeepHistory = 16
		a0 := allocBytes()
		t0 := time.Now()
		done := 0
		for _, l := range lanes {
			for _, x := range l {
				rep, err := mon.FeedWord(x, 64)
				if err != nil {
					return 0, err
				}
				if rep != nil {
					done++
				}
			}
		}
		el := time.Since(t0)
		allocPerSeq = append(allocPerSeq, float64(allocBytes()-a0)/float64(seqs))
		if done != seqs {
			return 0, fmt.Errorf("core replay completed %d sequences, want %d", done, seqs)
		}
		return float64(el.Nanoseconds()) / float64(words), nil
	})
	if err != nil {
		return err
	}
	m["core.feedword_ns_per_word"] = metric{feed, "ns"}
	m["core.alloc_bytes_per_sequence"] = metric{median(allocPerSeq), "B"}

	// sweval: Evaluator.Evaluate on finished blocks, one per lane, each
	// call timed on its own.
	blocks := make([]*hwblock.Block, len(lanes))
	for i, l := range lanes {
		blk, err := hwblock.New(design)
		if err != nil {
			return err
		}
		for _, x := range l[:b.w.seqWords()] {
			if err := blk.ClockWord(x, 64); err != nil {
				return err
			}
		}
		blocks[i] = blk
	}
	ev := sweval.NewEvaluator(cv)
	var evalNs []int64
	var evalAlloc []float64
	if _, err := repeat(func() (float64, error) {
		a0 := allocBytes()
		for _, blk := range blocks {
			t0 := time.Now()
			if _, err := ev.Evaluate(blk); err != nil {
				return 0, err
			}
			evalNs = append(evalNs, time.Since(t0).Nanoseconds())
		}
		evalAlloc = append(evalAlloc, float64(allocBytes()-a0)/float64(len(blocks)))
		return 0, nil
	}); err != nil {
		return err
	}
	m["sweval.evaluate_us_p50"] = metric{percentile(nanos(evalNs, 1e3), 50), "us"}
	m["sweval.alloc_bytes_per_eval"] = metric{median(evalAlloc), "B"}

	// hwblock and hwfast: ClockWord.
	blk, err := hwblock.New(design)
	if err != nil {
		return err
	}
	clock, err := nsPerWord(lanes, func() error { blk.Reset(); return nil }, func(x uint64) error {
		if blk.Done() {
			blk.Reset()
		}
		return blk.ClockWord(x, 64)
	})
	if err != nil {
		return err
	}
	m["hwblock.clockword_ns_per_word"] = metric{clock, "ns"}
	st, err := hwfast.New(design.N, design.Tests, design.Params)
	if err != nil {
		return err
	}
	clock, err = nsPerWord(lanes, func() error { st.Reset(); return nil }, func(x uint64) error {
		if st.Done() {
			st.Reset()
		}
		return st.ClockWord(x, 64)
	})
	if err != nil {
		return err
	}
	m["hwfast.clockword_ns_per_word"] = metric{clock, "ns"}

	// hwslice: the lanes as one group, sequence by sequence.
	if err := sliceMetrics(m, design, lanes); err != nil {
		return err
	}

	// online: Tracker.Push.
	tr, err := online.New(design, online.Config{})
	if err != nil {
		return err
	}
	push, err := nsPerWord(lanes, func() error { tr.Reset(); return nil }, func(x uint64) error {
		tr.Push(x, 64)
		return nil
	})
	if err != nil {
		return err
	}
	m["online.push_ns_per_word"] = metric{push, "ns"}
	return nil
}

// nsPerWord feeds every lane word to f, lane after lane, under repeat,
// calling reset before each pass, and returns the median ns per word.
func nsPerWord(lanes [][]uint64, reset func() error, f func(uint64) error) (float64, error) {
	words := 0
	for _, l := range lanes {
		words += len(l)
	}
	return repeat(func() (float64, error) {
		if err := reset(); err != nil {
			return 0, err
		}
		t0 := time.Now()
		for _, l := range lanes {
			for _, x := range l {
				if err := f(x); err != nil {
					return 0, err
				}
			}
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(words), nil
	})
}

// sliceMetrics times an hwslice group holding the lanes. Like the fleet,
// the group absorbs all but the last tile of a sequence, then every lane's
// state is extracted and the group rolls over.
func sliceMetrics(m map[string]metric, design hwblock.Config, lanes [][]uint64) error {
	g, err := hwslice.New(design.N, design.Tests, design.Params)
	if err != nil {
		return err
	}
	for l := range lanes {
		if err := g.Attach(l); err != nil {
			return err
		}
	}
	tilesPerSeq := design.N / 64
	seqs := len(lanes[0]) / tilesPerSeq
	tiles := make([][64]uint64, tilesPerSeq)
	var ws hwfast.WordStats
	var extractUs []float64
	absorb, err := repeat(func() (float64, error) {
		var absorb, extract time.Duration
		for q := 0; q < seqs; q++ {
			for t := range tiles {
				for l, lane := range lanes {
					tiles[t][l] = lane[q*tilesPerSeq+t]
				}
			}
			t0 := time.Now()
			for t := 0; t < tilesPerSeq-1; t++ {
				if err := g.AbsorbTile(&tiles[t]); err != nil {
					return 0, err
				}
			}
			t1 := time.Now()
			for l := range lanes {
				g.ExtractLane(l, &ws)
			}
			g.Rollover()
			extract += time.Since(t1)
			absorb += t1.Sub(t0)
		}
		extractUs = append(extractUs, float64(extract.Nanoseconds())/1e3/float64(seqs*len(lanes)))
		return float64(absorb.Nanoseconds()) / float64(seqs*(tilesPerSeq-1)*len(lanes)), nil
	})
	if err != nil {
		return err
	}
	m["hwslice.absorb_ns_per_lane_word"] = metric{absorb, "ns"}
	m["hwslice.extract_us_per_lane"] = metric{median(extractUs), "us"}
	return nil
}
