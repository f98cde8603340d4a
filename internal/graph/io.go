package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
)

// Plain-text interchange format, one record per line:
//
//	n m
//	u v cap        (m times)
//
// Lines starting with '#' and blank lines are ignored. This is the format
// accepted by cmd/maxflow and produced by cmd/graphgen.

// StreamWriter emits the text format edge by edge, so generators can
// write a graph they never materialize (cmd/graphgen at n=10⁶). The
// header is written up front from the promised edge count; Close
// verifies the promise so a truncated stream can't parse back.
type StreamWriter struct {
	bw   *bufio.Writer
	buf  []byte
	want int
	got  int
}

// NewStreamWriter starts a text-format stream for an n-vertex graph
// with exactly m edges to come.
func NewStreamWriter(w io.Writer, n, m int) (*StreamWriter, error) {
	sw := &StreamWriter{bw: bufio.NewWriterSize(w, 1<<16), want: m}
	sw.buf = strconv.AppendInt(sw.buf[:0], int64(n), 10)
	sw.buf = append(sw.buf, ' ')
	sw.buf = strconv.AppendInt(sw.buf, int64(m), 10)
	sw.buf = append(sw.buf, '\n')
	if _, err := sw.bw.Write(sw.buf); err != nil {
		return nil, err
	}
	return sw, nil
}

// Edge writes one edge record.
func (sw *StreamWriter) Edge(u, v int, capacity int64) error {
	sw.buf = strconv.AppendInt(sw.buf[:0], int64(u), 10)
	sw.buf = append(sw.buf, ' ')
	sw.buf = strconv.AppendInt(sw.buf, int64(v), 10)
	sw.buf = append(sw.buf, ' ')
	sw.buf = strconv.AppendInt(sw.buf, capacity, 10)
	sw.buf = append(sw.buf, '\n')
	sw.got++
	_, err := sw.bw.Write(sw.buf)
	return err
}

// Close flushes and verifies the edge count promised in the header.
func (sw *StreamWriter) Close() error {
	if sw.got != sw.want {
		return fmt.Errorf("graph: stream wrote %d edges, header promised %d", sw.got, sw.want)
	}
	return sw.bw.Flush()
}

// Write writes g in the text format.
func Write(w io.Writer, g *Graph) error {
	sw, err := NewStreamWriter(w, g.N(), g.M())
	if err != nil {
		return err
	}
	for _, e := range g.Edges() {
		if err := sw.Edge(e.U, e.V, e.Cap); err != nil {
			return err
		}
	}
	return sw.Close()
}

// Read parses a graph in the text format, edge at a time: the edge
// array is pre-sized from the header and each line is parsed in place
// from the scanner's buffer, so loading costs one edge array and no
// per-line garbage — at n=10⁶ the loaded graph, not the loader, is the
// peak.
func Read(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	var g *Graph
	want := 0
	got := 0
	line := 0
	var f [4][]byte
	for sc.Scan() {
		line++
		b := trimWS(sc.Bytes())
		if len(b) == 0 || b[0] == '#' {
			continue
		}
		nf := fieldsInto(b, &f)
		if g == nil {
			if nf != 2 {
				return nil, fmt.Errorf("graph: line %d: want 'n m' header, got %q", line, b)
			}
			n, err := parseInt(f[0])
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad n: %w", line, err)
			}
			m, err := parseInt(f[1])
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad m: %w", line, err)
			}
			if n < 0 || m < 0 {
				return nil, fmt.Errorf("graph: line %d: negative n or m", line)
			}
			if n > math.MaxInt32 || m > math.MaxInt32 {
				return nil, fmt.Errorf("graph: line %d: header %d %d out of range", line, n, m)
			}
			g = New(int(n))
			g.Reserve(int(m))
			want = int(m)
			continue
		}
		if nf != 3 {
			return nil, fmt.Errorf("graph: line %d: want 'u v cap', got %q", line, b)
		}
		u, err := parseInt(f[0])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad u: %w", line, err)
		}
		v, err := parseInt(f[1])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad v: %w", line, err)
		}
		c, err := parseInt(f[2])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad cap: %w", line, err)
		}
		if u < 0 || u >= int64(g.N()) || v < 0 || v >= int64(g.N()) {
			return nil, fmt.Errorf("graph: line %d: endpoint out of range", line)
		}
		if u == v {
			return nil, fmt.Errorf("graph: line %d: self-loop", line)
		}
		if c <= 0 {
			return nil, fmt.Errorf("graph: line %d: non-positive capacity", line)
		}
		g.AddEdge(int(u), int(v), c)
		got++
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: read: %w", err)
	}
	if g == nil {
		return nil, fmt.Errorf("graph: empty input")
	}
	if got != want {
		return nil, fmt.Errorf("graph: header promised %d edges, got %d", want, got)
	}
	return g, nil
}

func isWS(c byte) bool {
	return c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\v' || c == '\f'
}

func trimWS(b []byte) []byte {
	for len(b) > 0 && isWS(b[0]) {
		b = b[1:]
	}
	for len(b) > 0 && isWS(b[len(b)-1]) {
		b = b[:len(b)-1]
	}
	return b
}

// fieldsInto splits b on runs of whitespace into at most len(f) fields,
// returning the field count (len(f) means "too many").
func fieldsInto(b []byte, f *[4][]byte) int {
	nf := 0
	i := 0
	for i < len(b) {
		for i < len(b) && isWS(b[i]) {
			i++
		}
		if i >= len(b) {
			break
		}
		start := i
		for i < len(b) && !isWS(b[i]) {
			i++
		}
		if nf == len(f) {
			return len(f)
		}
		f[nf] = b[start:i]
		nf++
	}
	return nf
}

// parseInt is a no-allocation base-10 strconv.ParseInt for the reader's
// hot loop.
func parseInt(b []byte) (int64, error) {
	if len(b) == 0 {
		return 0, fmt.Errorf("empty number")
	}
	neg := false
	if b[0] == '+' || b[0] == '-' {
		neg = b[0] == '-'
		b = b[1:]
		if len(b) == 0 {
			return 0, fmt.Errorf("bare sign")
		}
	}
	var x int64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("bad digit %q", c)
		}
		d := int64(c - '0')
		if x > (math.MaxInt64-d)/10 {
			return 0, fmt.Errorf("number out of range")
		}
		x = x*10 + d
	}
	if neg {
		x = -x
	}
	return x, nil
}
