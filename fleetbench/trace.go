package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
)

// spanKind names what a span timed.
type spanKind uint8

const (
	spanSession spanKind = iota
	spanRegister
	spanPushWords
	spanDetach
)

var spanNames = [...]string{
	spanSession:   "session",
	spanRegister:  "fleet.Register",
	spanPushWords: "fleet.PushWords",
	spanDetach:    "fleet.Detach",
}

// span is one timed call into the fleet. A session span covers a session
// from its Register call to the return of its Detach call; the call spans
// of that session have it as parent and share its session id.
type span struct {
	start, end int64 // ns since the run's clock base
	session    int32
	kind       spanKind
}

// spanLog holds the spans of one goroutine in memory; logs are merged and
// written out once the run ends. Spans are stored in fixed-size chunks so
// a long traced run never copies its log to grow it. A nil *spanLog
// records nothing, which is how the untraced runs stay untraced.
type spanLog struct {
	chunks [][]span
}

const spanChunk = 1 << 14

func (l *spanLog) add(kind spanKind, session int32, start, end int64) {
	if l == nil {
		return
	}
	if n := len(l.chunks); n == 0 || len(l.chunks[n-1]) == spanChunk {
		l.chunks = append(l.chunks, make([]span, 0, spanChunk))
	}
	c := &l.chunks[len(l.chunks)-1]
	*c = append(*c, span{start: start, end: end, session: session, kind: kind})
}

// each calls f for every span of the logs, in recording order per log.
func each(logs []*spanLog, f func(span)) {
	for _, l := range logs {
		for _, c := range l.chunks {
			for _, s := range c {
				f(s)
			}
		}
	}
}

// durations returns the durations of the spans of one kind that started
// inside [from, to).
func durations(logs []*spanLog, kind spanKind, from, to int64) []int64 {
	var out []int64
	each(logs, func(s span) {
		if s.kind == kind && s.start >= from && s.start < to {
			out = append(out, s.end-s.start)
		}
	})
	return out
}

// writeSpans writes every span as one tab-separated line — id, parent id,
// session id, name, start and end in ns — to a gzip file. Session spans
// take their session id as span id and have parent 0 (the run); call spans
// are numbered after them and have their session span as parent.
func writeSpans(path string, logs []*spanLog) (n int, err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriterSize(zw, 1<<16)
	if _, err := bw.WriteString("id\tparent\tsession\tname\tstart_ns\tend_ns\n"); err != nil {
		return 0, err
	}
	var maxSession int64
	each(logs, func(s span) { maxSession = max(maxSession, int64(s.session)) })
	next := maxSession + 1
	var line []byte
	each(logs, func(s span) {
		id, parent := int64(s.session), int64(s.session)
		if s.kind == spanSession {
			parent = 0
		} else {
			id = next
			next++
		}
		line = strconv.AppendInt(line[:0], id, 10)
		line = append(line, '\t')
		line = strconv.AppendInt(line, parent, 10)
		line = append(line, '\t')
		line = strconv.AppendInt(line, int64(s.session), 10)
		line = append(line, '\t')
		line = append(line, spanNames[s.kind]...)
		line = append(line, '\t')
		line = strconv.AppendInt(line, s.start, 10)
		line = append(line, '\t')
		line = strconv.AppendInt(line, s.end, 10)
		line = append(line, '\n')
		// bufio.Writer keeps its first error and returns it from Flush.
		_, _ = bw.Write(line)
		n++
	})
	if err := bw.Flush(); err != nil {
		return n, err
	}
	if err := zw.Close(); err != nil {
		return n, err
	}
	if err := f.Close(); err != nil {
		return n, fmt.Errorf("close %s: %w", path, err)
	}
	return n, nil
}
