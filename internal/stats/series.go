package stats

import (
	"fmt"
	"io"
	"strings"
)

// Point is one (x, y) observation of a time series.
type Point struct{ X, Y float64 }

// Series is an append-only sequence of points, used to reproduce the
// timeline figures (latency vs iteration, Resos vs interval, cap vs time).
type Series struct {
	Name   string
	points []Point
}

// NewSeries returns an empty named series.
func NewSeries(name string) *Series { return &Series{Name: name} }

// Add appends a point.
func (s *Series) Add(x, y float64) { s.points = append(s.points, Point{x, y}) }

// Len returns the number of points.
func (s *Series) Len() int { return len(s.points) }

// At returns point i.
func (s *Series) At(i int) Point { return s.points[i] }

// Points returns the underlying slice (read-only by convention).
func (s *Series) Points() []Point { return s.points }

// Last returns the final point; ok is false when empty.
func (s *Series) Last() (Point, bool) {
	if len(s.points) == 0 {
		return Point{}, false
	}
	return s.points[len(s.points)-1], true
}

// YSummary summarizes the Y values.
func (s *Series) YSummary() *Summary {
	sum := &Summary{}
	for _, p := range s.points {
		sum.Add(p.Y)
	}
	return sum
}

// Downsample returns a new series with at most n points, each the mean of an
// equal-size chunk of the original (X taken from the chunk start). Timeline
// figures plot 100k iterations; downsampling keeps terminal output readable.
func (s *Series) Downsample(n int) *Series {
	out := NewSeries(s.Name)
	if n <= 0 || len(s.points) == 0 {
		return out
	}
	if len(s.points) <= n {
		out.points = append(out.points, s.points...)
		return out
	}
	chunk := float64(len(s.points)) / float64(n)
	for i := 0; i < n; i++ {
		lo := int(float64(i) * chunk)
		hi := int(float64(i+1) * chunk)
		if hi > len(s.points) {
			hi = len(s.points)
		}
		if lo >= hi {
			continue
		}
		var sum float64
		for _, p := range s.points[lo:hi] {
			sum += p.Y
		}
		out.Add(s.points[lo].X, sum/float64(hi-lo))
	}
	return out
}

// SeriesSet is a group of series sharing an X axis, e.g. the several lines
// of one figure.
type SeriesSet struct {
	series []*Series
}

// NewSeriesSet returns an empty set.
func NewSeriesSet() *SeriesSet { return &SeriesSet{} }

// Add creates (or returns the existing) series with the given name.
func (ss *SeriesSet) Add(name string) *Series {
	for _, s := range ss.series {
		if s.Name == name {
			return s
		}
	}
	s := NewSeries(name)
	ss.series = append(ss.series, s)
	return s
}

// Series returns all member series in insertion order.
func (ss *SeriesSet) Series() []*Series { return ss.series }

// WriteCSV emits all series as aligned columns. Series are sampled by row
// index (they are expected to share X grids; unequal lengths leave blanks).
func (ss *SeriesSet) WriteCSV(w io.Writer) error {
	cols := []string{"x"}
	maxLen := 0
	for _, s := range ss.series {
		cols = append(cols, csvEscape(s.Name))
		if s.Len() > maxLen {
			maxLen = s.Len()
		}
	}
	if _, err := fmt.Fprintln(w, strings.Join(cols, ",")); err != nil {
		return err
	}
	for i := 0; i < maxLen; i++ {
		row := make([]string, 0, len(cols))
		x := ""
		for _, s := range ss.series {
			if i < s.Len() {
				x = fmt.Sprintf("%g", s.At(i).X)
				break
			}
		}
		row = append(row, x)
		for _, s := range ss.series {
			if i < s.Len() {
				row = append(row, fmt.Sprintf("%g", s.At(i).Y))
			} else {
				row = append(row, "")
			}
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}
